// Command perfbench is the repository's campaign benchmark. It runs
// fixed-shape fuzzing campaigns through the public Executor-typed entry
// points and through the campaign service, checks every campaign's
// Stats.Wire() bytes, and prints the end-to-end metrics (untraced run) or a
// per-layer breakdown (traced run). README.md lists the workloads and
// metrics.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload all --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 only when every
// campaign was complete and byte-identical to its reference.
package main

import (
	"bufio"
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// expectedFile holds the recorded reference hashes, relative to the
// repository root; the binary embeds it.
const expectedFile = "perfbench/expected.json"

//go:embed expected.json
var expectedJSON []byte

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	traced  bool
	// iters overrides every workload's campaign size when positive.
	iters int
	// recorded maps hashKey(workload, iters, seed) to the Stats.Wire()
	// sha256 a fresh campaign produced.
	recorded map[string]string
	log      io.Writer
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "campaign seed")
	seconds := fs.Float64("seconds", 10, "measuring time per workload; every campaign seed runs at least once and campaigns run whole")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end metrics")
	iters := fs.Int("iters", 0, "override the campaign size (0 keeps each workload's size)")
	record := fs.String("record", "", "record reference hashes for a seed range such as 1-20 into "+expectedFile+" instead of measuring")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *traced < 0 || *traced > 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: bad arguments; see -h")
		return 2
	}
	var ws []*workload
	if *name == "all" {
		ws = workloads
	} else if w := workloadByName(*name); w != nil {
		ws = []*workload{w}
	} else {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	recorded := map[string]string{}
	if err := json.Unmarshal(expectedJSON, &recorded); err != nil {
		fmt.Fprintf(stderr, "perfbench: expected.json: %v\n", err)
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, traced: *traced == 1, iters: *iters, recorded: recorded, log: stdout}
	if *record != "" {
		return recordHashes(cfg, ws, *record, stderr)
	}
	if len(ws) > 1 {
		return runEach(args, stdout, stderr)
	}

	fmt.Fprintf(stdout, "perfbench: machine %s\n", describeMachine())
	r := measure(ws[0], cfg)
	printTable(stdout, r, cfg.traced)
	return printResult(stdout, stderr, summarizeResult(r, cfg.traced))
}

// printResult prints the result object as the last output line and returns
// the exit code.
func printResult(stdout, stderr io.Writer, s output) int {
	line, err := json.Marshal(s)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !s.Correct {
		return 1
	}
	return 0
}

// runEach runs every workload in a child process of its own, so that each
// one's peak memory is its own and no workload inherits another's heap. It
// passes the children's output through and merges their result objects,
// prefixing every metric name with its workload.
func runEach(args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	s := output{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range workloads {
		// A repeated flag takes its last value.
		cmd := exec.Command(exe, append(slices.Clone(args), "--workload", w.name)...)
		cmd.Stderr = stderr
		res, err := lastLine(cmd, stdout)
		var o output
		if err == nil {
			err = json.Unmarshal([]byte(res), &o)
		}
		if err != nil || o.Attempted < 1 {
			fmt.Fprintf(stdout, "  FAIL: %s printed no result: %v\n", w.name, err)
			o = output{Attempted: 1, Failed: 1}
		}
		s.Correct = s.Correct && o.Correct
		s.Attempted += o.Attempted
		s.Failed += o.Failed
		for name, v := range o.Metrics {
			s.Metrics[w.name+"."+name] = v
		}
	}
	return printResult(stdout, stderr, s)
}

// lastLine runs cmd, copies every line of its standard output but the last
// to w as it arrives, and returns the last one. An exit code other than 0
// is not an error: the result object says why.
func lastLine(cmd *exec.Cmd, w io.Writer) (string, error) {
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return "", err
	}
	if err := cmd.Start(); err != nil {
		return "", err
	}
	sc := bufio.NewScanner(pipe)
	sc.Buffer(nil, 1<<20)
	var last string
	for n := 0; sc.Scan(); n++ {
		if n > 0 {
			fmt.Fprintln(w, last)
		}
		last = sc.Text()
	}
	scanErr := sc.Err()
	_, _ = io.Copy(io.Discard, pipe) // after a scan error, so the child never blocks on a full pipe
	if err := cmd.Wait(); err != nil && !errors.As(err, new(*exec.ExitError)) {
		return "", err
	}
	return last, scanErr
}

func workloadNames() []string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return ns
}

// hashKey names one recorded reference: a campaign's identity is its
// workload shape, size and seed.
func hashKey(workload string, iters int, seed int64) string {
	return fmt.Sprintf("%s/%d/%d", workload, iters, seed)
}

// campaignSample is one measured campaign.
type campaignSample struct {
	seed int64
	out  outcome
	wall time.Duration
	cpu  time.Duration // process CPU time, all threads
	rt   runtimeSample
	rss  float64 // peak resident memory during the campaign, MiB
}

// result is everything measured on one workload.
type result struct {
	w     *workload
	iters int
	// seeds are the run's campaign seeds, derived from the --seed argument.
	seeds    []int64
	setupS   []float64
	camps    []campaignSample // the end-to-end campaigns (untraced)
	traced   []campaignSample // the traced phase's campaigns
	failed   int
	problems []string
	layers   []metric
}

// attempted is the number of campaigns the result's verdict covers.
func (r *result) attempted() int {
	if n := len(r.camps) + len(r.traced); n > 0 {
		return n
	}
	return 1 // a set-up that failed counts as one failed attempt
}

// seedStride separates the campaign seeds one --seed value stands for:
// seed, seed+seedStride, seed+2*seedStride, ... Distinct small --seed values
// therefore never share a campaign.
const seedStride = 1 << 20

func campaignSeeds(seed int64, n int) []int64 {
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = seed + int64(i)*seedStride
	}
	return seeds
}

// Set-up repeats at least minSetups times and until minSetupTime has been
// spent on it, so that millisecond set-ups get a steady median too, but at
// most maxSetups times: the fuzz package caches every campaign analysis it
// sees (its monitor-placement ranks), so each set-up grows the live heap
// and later set-ups pay for it in GC work.
const (
	minSetups    = 5
	minSetupTime = time.Second
	maxSetups    = 25
)

// warmIters is the size of the untimed campaign that runs after set-up, so
// the executors' arenas and the heap have grown before the first measured
// campaign.
const warmIters = 256

// measure sets a workload up, runs a warm-up campaign, and runs whole
// passes over the workload's campaign seeds until cfg.seconds has passed;
// a traced run instead spends half that time on untraced and half on traced
// campaigns of the first seed. Every campaign is checked. Untraced runs then
// repeat the set-up for a steady setup_s median.
func measure(w *workload, cfg config) *result {
	r := &result{w: w, iters: w.iters, seeds: campaignSeeds(cfg.seed, w.seeds)}
	if cfg.iters > 0 {
		r.iters = cfg.iters
	}
	if cfg.traced {
		r.seeds = r.seeds[:1]
	}
	fmt.Fprintf(cfg.log, "perfbench: workload %s (%s)\n  seed=%d campaigns=%v iters=%d trace=%v\n",
		w.name, w.why, cfg.seed, r.seeds, r.iters, cfg.traced)
	err := r.run(cfg)
	if err == nil {
		err = r.check(cfg)
	}
	if err == nil && !cfg.traced {
		err = r.repeatSetup(cfg)
	}
	if err != nil {
		r.failed = r.attempted()
		r.problems = append(r.problems, err.Error())
	}
	for _, p := range r.problems {
		fmt.Fprintf(cfg.log, "  FAIL: %s\n", p)
	}
	return r
}

// run does one set-up, the warm-up campaign and the measured campaigns,
// and in a traced run computes the per-layer metrics.
func (r *result) run(cfg config) error {
	var pr *probes
	if cfg.traced {
		pr = &probes{exec: &execProbe{}, http: &httpProbe{}}
	}
	c, err := r.setup(pr, cfg.seed)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer c.close()
	warm := min(r.iters, warmIters)
	if o, err := c.run(r.seeds[0], warm); err != nil || o.iters != warm {
		return fmt.Errorf("warm-up campaign incomplete: %v", err)
	}
	d := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.traced {
		r.camps, err = campaigns(c, cfg, r.seeds, r.iters, d)
		return err
	}
	if r.camps, err = campaigns(c, cfg, r.seeds, r.iters, d/2); err != nil {
		return err
	}
	var td traceData
	if r.traced, td, err = tracedCampaigns(c, cfg, r.seeds, r.iters, d/2, pr); err != nil {
		return err
	}
	if r.layers, err = layerMetrics(r, c, td); err != nil {
		return fmt.Errorf("per-layer metrics: %w", err)
	}
	if r.w.name == "netlist-lanes64" && td.exec.groupCalls == 0 {
		return fmt.Errorf("netlist-lanes64 never reached ExecuteGroup: the executor wrapper hid the lane path")
	}
	return nil
}

// check runs the correctness gate over the measured campaigns. A seed with
// a recorded hash is checked against it; on the fleet the local twin runs
// only for the other seeds, since a recorded hash is the twin's result.
func (r *result) check(cfg config) error {
	hashName := r.w.name
	if r.w.hashOf != "" {
		hashName = r.w.hashOf
	}
	twins := map[int64]string{}
	if r.w.hashOf != "" {
		ref := workloadByName(r.w.hashOf)
		for _, seed := range r.seeds {
			if cfg.recorded[hashKey(hashName, r.iters, seed)] != "" {
				continue
			}
			tc, err := ref.setup(seed, nil)
			if err != nil {
				return fmt.Errorf("local twin set-up: %w", err)
			}
			o, err := tc.run(seed, r.iters)
			tc.close()
			if err != nil {
				return fmt.Errorf("local twin campaign: %w", err)
			}
			twins[seed] = o.hash
		}
	}
	unrecorded := 0
	recorded := func(seed int64) string {
		h := cfg.recorded[hashKey(hashName, r.iters, seed)]
		if h == "" {
			unrecorded++
		}
		return h
	}
	r.failed, r.problems = verify(append(append([]campaignSample(nil), r.camps...), r.traced...), r.iters, recorded, twins)
	if unrecorded > 0 {
		also := ""
		if r.w.hashOf != "" {
			also = " and the local twin"
		}
		fmt.Fprintf(cfg.log, "  note: %d campaigns have no recorded hash; they were checked against their repetitions%s\n", unrecorded, also)
	}
	return nil
}

// repeatSetup repeats the set-up, discarding what it builds, until it ran
// at least minSetups times and for at least minSetupTime.
func (r *result) repeatSetup(cfg config) error {
	var spent float64
	for _, s := range r.setupS {
		spent += s
	}
	for len(r.setupS) < maxSetups && (len(r.setupS) < minSetups || spent < minSetupTime.Seconds()) {
		c, err := r.setup(nil, cfg.seed)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		c.close()
		spent += r.setupS[len(r.setupS)-1]
	}
	fmt.Fprintf(cfg.log, "  set-up: %d times, median %.4f s\n", len(r.setupS), median(r.setupS))
	return nil
}

// setup runs the workload's set-up once after a GC and records the
// process CPU time it took. CPU time, unlike elapsed time, leaves out the
// time a shared host takes the CPU away from the process.
func (r *result) setup(pr *probes, seed int64) (campaigner, error) {
	runtime.GC()
	start := cpuTime()
	c, err := r.w.setup(seed, pr)
	if err == nil {
		r.setupS = append(r.setupS, (cpuTime() - start).Seconds())
	}
	return c, err
}

// verify checks campaigns: each must be complete, equal the seed's first
// campaign, the seed's recorded hash (when one exists) and the seed's local
// twin (fleet), and have had no expired or abandoned lease. It returns the
// number of failed campaigns and one line per failure.
func verify(camps []campaignSample, iters int, recorded func(seed int64) string, twins map[int64]string) (int, []string) {
	failed := 0
	var problems []string
	first := map[int64]string{}
	for i, c := range camps {
		o := c.out
		var why []string
		if o.iters != iters {
			why = append(why, fmt.Sprintf("incomplete: %d of %d iterations", o.iters, iters))
		}
		if h, ok := first[c.seed]; !ok {
			first[c.seed] = o.hash
		} else if o.hash != h {
			why = append(why, "Stats.Wire() differs from the seed's first campaign")
		}
		if h := recorded(c.seed); h != "" && o.hash != h {
			why = append(why, "Stats.Wire() differs from the recorded hash")
		}
		if h, ok := twins[c.seed]; ok && o.hash != h {
			why = append(why, "Stats.Wire() differs from the local twin")
		}
		if o.leaseFaults > 0 {
			why = append(why, fmt.Sprintf("%d expired or abandoned leases", o.leaseFaults))
		}
		if len(why) > 0 {
			failed++
			problems = append(problems, fmt.Sprintf("campaign %d (seed %d): %s", i+1, c.seed, strings.Join(why, "; ")))
		}
	}
	return failed, problems
}

// campaigns runs whole campaigns, cycling over seeds, until every seed ran
// once and d has passed, and samples the runtime counters and the peak
// resident memory around each. Every campaign starts from a collected heap
// whose free memory went back to the OS, so its peak is its own.
func campaigns(c campaigner, cfg config, seeds []int64, iters int, d time.Duration) ([]campaignSample, error) {
	var out []campaignSample
	start := time.Now()
	for i := 0; i < len(seeds) || time.Since(start) < d; i++ {
		seed := seeds[i%len(seeds)]
		debug.FreeOSMemory()
		resetPeakRSS()
		r0 := readRuntime()
		cpu0 := cpuTime()
		t0 := time.Now()
		o, err := c.run(seed, iters)
		wall := time.Since(t0)
		cpu := cpuTime() - cpu0
		if err != nil {
			return out, fmt.Errorf("campaign %d (seed %d): %w", i+1, seed, err)
		}
		out = append(out, campaignSample{seed: seed, out: o, wall: wall, cpu: cpu, rt: readRuntime().sub(r0), rss: peakRSSMiB()})
		s := out[len(out)-1]
		fmt.Fprintf(cfg.log, "  campaign %d seed=%d: %.3f s  %.1f iter/s  %.1f iter/cpu-s  %.1f allocs/iter  points=%d corpus=%d findings=%d cycles=%d sha256=%.16s\n",
			i+1, seed, wall.Seconds(), float64(o.iters)/wall.Seconds(), float64(o.iters)/cpu.Seconds(), float64(s.rt.allocs)/float64(max(o.iters, 1)),
			o.points, o.corpus, o.findings, o.cycles, o.hash)
	}
	return out, nil
}

// traceData is what the probes recorded over a traced phase.
type traceData struct {
	layers layerTimes
	rt     runtimeSample // over the whole phase, read after a GC on both ends
	exec   execStats
	http   httpStats
}

// tracedCampaigns runs the traced phase: probes on and a CPU profile
// running.
func tracedCampaigns(c campaigner, cfg config, seeds []int64, iters int, d time.Duration, pr *probes) ([]campaignSample, traceData, error) {
	var td traceData
	runtime.GC()
	rt0 := readRuntime()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, td, err
	}
	pr.exec.on.Store(true)
	pr.http.on.Store(true)
	camps, err := campaigns(c, cfg, seeds, iters, d)
	pr.exec.on.Store(false)
	pr.http.on.Store(false)
	pprof.StopCPUProfile()
	runtime.GC()
	td.rt = readRuntime().sub(rt0)
	td.exec, td.http = pr.exec.take(), pr.http.take()
	if err != nil {
		return camps, td, err
	}
	td.layers, err = attribute(prof.Bytes())
	return camps, td, err
}

// metric is one named, unit-carrying value and the number of samples it
// summarizes.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
	// lo and hi are the smallest and largest sample, when there are several.
	lo, hi float64
}

// endToEnd computes a result's end-to-end metrics from its untraced
// campaigns. Each seed counts once, at its median: the throughputs are the
// seeds' iterations over the sum of their median campaign times (elapsed or
// CPU), and allocs_per_iter the sum of their median allocation counts over
// the same iterations. peak_rss_mib is the median of the campaigns' own peaks
// over the first pass: the fleet controller keeps every finished campaign,
// so later campaigns start on a larger heap, and the first pass is the same
// work in every run. Ranges show single campaigns.
func endToEnd(r *result) []metric {
	bySeed := map[int64][]campaignSample{}
	var ips, cps, apc, rss []float64
	for _, s := range r.camps[:min(len(r.seeds), len(r.camps))] {
		rss = append(rss, s.rss)
	}
	for _, s := range r.camps {
		bySeed[s.seed] = append(bySeed[s.seed], s)
		n := float64(s.out.iters)
		ips = append(ips, n/s.wall.Seconds())
		cps = append(cps, n/s.cpu.Seconds())
		apc = append(apc, float64(s.rt.allocs)/n)
	}
	var iters, wall, cpu, allocs float64
	for _, seed := range r.seeds {
		ss := bySeed[seed]
		if len(ss) == 0 {
			continue
		}
		var walls, cpus, as []float64
		for _, s := range ss {
			walls = append(walls, s.wall.Seconds())
			cpus = append(cpus, s.cpu.Seconds())
			as = append(as, float64(s.rt.allocs))
		}
		iters += float64(ss[0].out.iters)
		wall += median(walls)
		cpu += median(cpus)
		allocs += median(as)
	}
	return []metric{
		ranged("iters_per_s", "iter/s", iters/math.Max(wall, 1e-9), ips),
		ranged("iters_per_cpu_s", "iter/s", iters/math.Max(cpu, 1e-9), cps),
		ranged("setup_s", "s", median(r.setupS), r.setupS),
		ranged("allocs_per_iter", "allocs", allocs/math.Max(iters, 1), apc),
		ranged("peak_rss_mib", "MiB", median(rss), rss),
		{name: "failed_share", value: float64(r.failed) / float64(r.attempted()), unit: "ratio", samples: r.attempted()},
	}
}

// ranged is a metric summarizing samples, with their range.
func ranged(name, unit string, value float64, samples []float64) metric {
	m := metric{name: name, unit: unit, value: value, samples: len(samples)}
	if len(samples) > 0 {
		m.lo, m.hi = slices.Min(samples), slices.Max(samples)
	}
	return m
}

// output is the final JSON line.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// ungated end-to-end metrics are printed in the table but left out of the
// JSON line: failed_share is what attempted and failed carry, and
// peak_rss_mib of the fleet workload moves between runs by more than a
// bound could allow (README.md).
var ungated = map[string]bool{"failed_share": true, "peak_rss_mib": true}

// summarizeResult builds the final JSON line. Untraced runs report the
// gated end-to-end metrics, traced runs the per-layer metrics.
func summarizeResult(r *result, traced bool) output {
	o := output{Correct: r.failed == 0, Attempted: r.attempted(), Failed: r.failed, Metrics: map[string]metricValue{}}
	ms := r.layers
	if !traced {
		ms = endToEnd(r)
	}
	for _, m := range ms {
		if traced || !ungated[m.name] {
			o.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
		}
	}
	return o
}

// printTable prints one workload's metrics for a human reader.
func printTable(w io.Writer, r *result, traced bool) {
	ms := r.layers
	title := "per-layer"
	if !traced {
		ms = endToEnd(r)
		title = "end-to-end"
	}
	fmt.Fprintf(w, "%s (%s, %d iterations per campaign)\n", r.w.name, title, r.iters)
	fmt.Fprintf(w, "  %-28s %14s  %-7s %8s  %s\n", "metric", "value", "unit", "samples", "range")
	for _, m := range ms {
		rng := ""
		if m.samples > 1 && m.lo != m.hi {
			rng = fmt.Sprintf("%s .. %s", strconv.FormatFloat(m.lo, 'g', 6, 64), strconv.FormatFloat(m.hi, 'g', 6, 64))
		}
		fmt.Fprintf(w, "  %-28s %14s  %-7s %8d  %s\n", m.name, strconv.FormatFloat(m.value, 'g', 6, 64), m.unit, m.samples, rng)
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS sets the process's peak resident set size to its current
// one. Where the kernel does not allow that, the peak stays the process's
// lifetime peak; a process measures one workload (runEach starts one per
// workload), so that is still the workload's own.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMiB is the process's peak resident set size since the last
// resetPeakRSS.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(b), "\n") {
		if f := strings.Fields(l); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kib, _ := strconv.ParseFloat(f[1], 64)
			return kib / 1024
		}
	}
	return 0
}

// machine describes where a result was measured.
type machine struct {
	NProc, GOMAXPROCS int
	GOARCH, Go        string
	Commit            string
}

func describeMachine() machine {
	m := machine{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GOARCH: runtime.GOARCH,
		Go: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
		if rev != "" {
			m.Commit = rev + dirty
		}
	}
	return m
}

func (m machine) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d GOARCH=%s go=%s commit=%s", m.NProc, m.GOMAXPROCS, m.GOARCH, m.Go, m.Commit)
}

// recordHashes runs one campaign on fresh executors for every campaign seed
// of every --seed value in a range, and writes their Stats.Wire() hashes,
// merged into the existing table. Workloads whose hashes are another
// workload's (the fleet) are skipped.
func recordHashes(cfg config, ws []*workload, seeds string, stderr io.Writer) int {
	from, to, ok := strings.Cut(seeds, "-")
	lo, err1 := strconv.ParseInt(from, 10, 64)
	hi, err2 := strconv.ParseInt(to, 10, 64)
	if !ok || err1 != nil || err2 != nil || lo > hi {
		fmt.Fprintf(stderr, "perfbench: -record wants a range like 1-20, got %q\n", seeds)
		return 2
	}
	for _, w := range ws {
		if w.hashOf != "" {
			continue
		}
		iters := w.iters
		if cfg.iters > 0 {
			iters = cfg.iters
		}
		for seed := lo; seed <= hi; seed++ {
			for _, cs := range campaignSeeds(seed, w.seeds) {
				c, err := w.setup(cs, nil)
				if err != nil {
					fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
					return 1
				}
				o, err := c.run(cs, iters)
				c.close()
				if err != nil || o.iters != iters {
					fmt.Fprintf(stderr, "perfbench: %s seed %d: incomplete campaign (%v)\n", w.name, cs, err)
					return 1
				}
				cfg.recorded[hashKey(w.name, iters, cs)] = o.hash
				fmt.Fprintf(cfg.log, "%s seed=%d points=%d corpus=%d cycles=%d sha256=%s\n", w.name, cs, o.points, o.corpus, o.cycles, o.hash)
			}
		}
	}
	b, err := json.MarshalIndent(cfg.recorded, "", "  ")
	if err == nil {
		err = os.WriteFile(expectedFile, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}
