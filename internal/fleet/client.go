package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"sonar/internal/fuzz"
)

// Client is a thin HTTP client for the campaign service API, used by
// cmd/sonar-worker and the service tests.
type Client struct {
	// BaseURL is the server's base URL, e.g. "http://127.0.0.1:8714".
	BaseURL string
	// HTTPClient is the underlying client; nil means http.DefaultClient.
	HTTPClient *http.Client
}

// NewClient returns a client for a server base URL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

// httpClient returns the effective underlying HTTP client.
func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// do issues one API request with a JSON body (in, when non-nil). A non-nil
// out is filled from a JSON response body; error bodies become
// "<status>: <message>" errors.
func (c *Client) do(method, path string, in, out any) error {
	var body []byte
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("fleet: marshal %s %s body: %w", method, path, err)
		}
		body = b
	}
	resp, err := c.send(method, path, body, "application/json")
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
	if out == nil || resp.StatusCode == http.StatusNoContent {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// postLease posts a lease-loop body (wire.go) and returns the whole
// response body, or nil for 204 No Content.
func (c *Client) postLease(path string, body []byte) ([]byte, error) {
	resp, err := c.send("POST", path, body, leaseContentType)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNoContent {
		return nil, nil
	}
	return readSized(resp.Body, resp.ContentLength)
}

// send issues one API request, with a body of the given content type when
// body is non-nil; the request carries the body's Content-Length. A
// response with an error status becomes an *APIError.
func (c *Client) send(method, path string, body []byte, contentType string) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.BaseURL+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 400 {
		defer drainClose(resp.Body)
		return nil, apiError(resp)
	}
	return resp, nil
}

// readSized reads r to its end into one buffer sized for the declared
// length n (negative: unknown), so a body of known length is read without
// regrowing.
func readSized(r io.Reader, n int64) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(int(max(n, 0)) + bytes.MinRead) // room to read EOF without growing
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// drainClose reads what is left of a response body before closing it, so
// the transport can reuse the connection: a json.Decoder stops after the
// value and leaves the encoder's trailing newline (and, for a chunked body,
// the final chunk) unread, and a body closed before its end closes the
// connection with it. A remainder larger than that is not worth reading.
func drainClose(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, 4<<10))
	body.Close()
}

// raw issues one GET and returns the raw response body (events, checkpoint
// downloads).
func (c *Client) raw(path string) ([]byte, error) {
	resp, err := c.httpClient().Get(c.BaseURL + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return nil, apiError(resp)
	}
	return io.ReadAll(resp.Body)
}

// apiError converts an error response to a Go error carrying the status
// code and the server's message.
func apiError(resp *http.Response) error {
	var body struct {
		Error string `json:"error"`
	}
	msg := resp.Status
	if json.NewDecoder(resp.Body).Decode(&body) == nil && body.Error != "" {
		msg = body.Error
	}
	return &APIError{Status: resp.StatusCode, Message: msg}
}

// APIError is an error response from the campaign service.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Message is the server's error message.
	Message string
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("fleet: server returned %d: %s", e.Status, e.Message)
}

// Health fetches the server's health summary.
func (c *Client) Health() (*Health, error) {
	var h Health
	if err := c.do("GET", "/healthz", nil, &h); err != nil {
		return nil, err
	}
	return &h, nil
}

// Submit submits a campaign spec and returns the new campaign's status.
func (c *Client) Submit(spec *Spec) (*CampaignStatus, error) {
	var st CampaignStatus
	if err := c.do("POST", "/api/v1/campaigns", spec, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Campaigns lists all campaigns.
func (c *Client) Campaigns() ([]CampaignStatus, error) {
	var out []CampaignStatus
	if err := c.do("GET", "/api/v1/campaigns", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Campaign fetches one campaign's status.
func (c *Client) Campaign(id string) (*CampaignStatus, error) {
	var st CampaignStatus
	if err := c.do("GET", "/api/v1/campaigns/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Events downloads a campaign's JSONL event stream so far.
func (c *Client) Events(id string) ([]byte, error) {
	return c.raw("/api/v1/campaigns/" + id + "/events")
}

// Result fetches a finished campaign's result. A fuzz campaign's arrives
// in the binary result encoding and is rendered into Stats here; an
// analysis campaign's is JSON. The Content-Type tells them apart.
func (c *Client) Result(id string) (*Result, error) {
	resp, err := c.send("GET", "/api/v1/campaigns/"+id+"/result", nil, "")
	if err != nil {
		return nil, err
	}
	defer drainClose(resp.Body)
	if resp.Header.Get("Content-Type") != leaseContentType {
		var res Result
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			return nil, err
		}
		return &res, nil
	}
	b, err := readSized(resp.Body, resp.ContentLength)
	if err != nil {
		return nil, err
	}
	fr, err := decodeResult(b)
	if err != nil {
		return nil, fmt.Errorf("fleet: result: %w", err)
	}
	return &Result{Kind: "fuzz", Stats: fr.wire()}, nil
}

// CheckpointFile downloads a fuzz campaign's encoded checkpoint file.
func (c *Client) CheckpointFile(id string) ([]byte, error) {
	return c.raw("/api/v1/campaigns/" + id + "/checkpoint")
}

// Acquire asks for a lease, naming the corpus prefix the worker holds (nil:
// none). A nil grant with a nil error means the server has no work to offer
// right now (204).
func (c *Client) Acquire(worker string, have *Holding) (*LeaseGrant, error) {
	b, err := c.postLease("/api/v1/leases/acquire", appendAcquire(nil, worker, have))
	if err != nil || b == nil {
		return nil, err
	}
	g, err := DecodeGrant(b)
	if err != nil {
		return nil, fmt.Errorf("fleet: grant: %w", err)
	}
	return g, nil
}

// Renew extends an outstanding lease's TTL.
func (c *Client) Renew(leaseID string) error {
	return c.do("POST", "/api/v1/leases/"+leaseID+"/renew", struct{}{}, nil)
}

// Report posts an executed lease's result.
func (c *Client) Report(leaseID string, res *fuzz.LeaseResult) error {
	_, err := c.postLease("/api/v1/leases/"+leaseID+"/result", AppendReport(nil, res))
	return err
}

// Drain switches the server's lease granting off or back on.
func (c *Client) Drain(on bool) error {
	return c.do("POST", "/api/v1/drain", drainRequest{Drain: on}, nil)
}
