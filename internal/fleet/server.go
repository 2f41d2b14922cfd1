package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"sonar/internal/fuzz"
)

// Server exposes a Controller over HTTP. Every endpoint, schema, and error
// code is documented in docs/SERVICE.md. Bodies are JSON except the lease
// loop's three — acquire request, grant and report — which use the binary
// encoding of wire.go; error bodies are {"error": "..."} with a matching
// status code on every route.
type Server struct {
	ct  *Controller
	mux *http.ServeMux
}

// NewServer mounts the API routes for a controller.
func NewServer(ct *Controller) *Server {
	s := &Server{ct: ct, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.Handle("GET /metrics", ct.Metrics().Handler())
	s.mux.HandleFunc("POST /api/v1/campaigns", s.handleSubmit)
	s.mux.HandleFunc("GET /api/v1/campaigns", s.handleList)
	s.mux.HandleFunc("GET /api/v1/campaigns/{id}", s.handleCampaign)
	s.mux.HandleFunc("GET /api/v1/campaigns/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /api/v1/campaigns/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /api/v1/campaigns/{id}/checkpoint", s.handleCheckpoint)
	s.mux.HandleFunc("POST /api/v1/leases/acquire", s.handleAcquire)
	s.mux.HandleFunc("POST /api/v1/leases/{id}/renew", s.handleRenew)
	s.mux.HandleFunc("POST /api/v1/leases/{id}/result", s.handleReport)
	s.mux.HandleFunc("POST /api/v1/drain", s.handleDrain)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// writeJSON writes a JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // the connection is the only failure mode here
}

// writeErr maps a controller error to its status code.
func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, errBadRequest):
		status = http.StatusBadRequest
	case errors.Is(err, errNotFound):
		status = http.StatusNotFound
	case errors.Is(err, errGone), errors.Is(err, errConflict):
		status = http.StatusConflict
	case errors.Is(err, errEvicted):
		status = http.StatusGone
	case errors.Is(err, errTooLarge):
		status = http.StatusRequestEntityTooLarge
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// maxBodyBytes caps every request body the server reads, so one client
// cannot make the server buffer an unbounded value. The largest real bodies
// are lease reports (1.3 KiB on average at batch size 8 in perfbench's
// fleet workload; they grow with the batch size) and submitted FIRRTL
// source; 16 MiB leaves both far below the cap. Leases travel the other way
// and are not capped; one that ships only the seeds the worker lacks
// averages about 1.3 KiB in the same workload.
const maxBodyBytes = 16 << 20

// bodyErr maps a failure to read or decode a request body to its status: a
// body over maxBodyBytes is too large (413), any other is a bad request.
func bodyErr(err error) error {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return fmt.Errorf("%w: body exceeds %d bytes", errTooLarge, tooLarge.Limit)
	}
	return fmt.Errorf("%w: body: %v", errBadRequest, err)
}

// decodeJSON strictly decodes a request body of at most maxBodyBytes.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return bodyErr(err)
	}
	return nil
}

// readLease reads a lease-loop request body of at most maxBodyBytes whole
// and decodes it with decode (wire.go). A body that declares a larger
// Content-Length is refused before any of it is read.
func readLease(w http.ResponseWriter, r *http.Request, decode func([]byte) error) error {
	if r.ContentLength > maxBodyBytes {
		return bodyErr(&http.MaxBytesError{Limit: maxBodyBytes})
	}
	b, err := readSized(http.MaxBytesReader(w, r.Body, maxBodyBytes), r.ContentLength)
	if err == nil {
		err = decode(b)
	}
	if err != nil {
		return bodyErr(err)
	}
	return nil
}

// writeLease writes a lease-loop response body.
func writeLease(w http.ResponseWriter, b []byte) {
	w.Header().Set("Content-Type", leaseContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.ct.Health())
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	if err := decodeJSON(w, r, &spec); err != nil {
		writeErr(w, err)
		return
	}
	st, err := s.ct.Submit(&spec)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, st)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.ct.Campaigns())
}

func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	st, err := s.ct.Campaign(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	b, err := s.ct.Events(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	res, err := s.ct.Result(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	b, err := s.ct.Checkpoint(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}

func (s *Server) handleAcquire(w http.ResponseWriter, r *http.Request) {
	var worker string
	var have *Holding
	err := readLease(w, r, func(b []byte) (err error) {
		worker, have, err = decodeAcquire(b)
		return err
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	g, err := s.ct.Acquire(r.Context(), worker, have)
	if err != nil {
		writeErr(w, err)
		return
	}
	if g == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeLease(w, AppendGrant(nil, g))
}

// renewResponse is the lease-renew response body.
type renewResponse struct {
	// TTLMillis is the renewed lease's remaining time-to-live.
	TTLMillis int64 `json:"ttl_ms"`
}

func (s *Server) handleRenew(w http.ResponseWriter, r *http.Request) {
	ttl, err := s.ct.Renew(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, renewResponse{TTLMillis: ttl.Milliseconds()})
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	var res *fuzz.LeaseResult
	err := readLease(w, r, func(b []byte) (err error) {
		res, err = DecodeReport(b)
		return err
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	if err := s.ct.Report(r.PathValue("id"), res); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "merged"})
}

// drainRequest is the drain request body.
type drainRequest struct {
	// Drain switches lease granting off (true) or back on (false).
	Drain bool `json:"drain"`
}

func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	var req drainRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	s.ct.Drain(req.Drain)
	writeJSON(w, http.StatusOK, map[string]bool{"draining": req.Drain})
}
