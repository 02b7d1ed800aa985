// Command perfbench is the decision-service benchmark: it measures one
// decision that pdpd serves over HTTP to an open-loop client, the unit of
// performance of the pull model (a PEP calls a remote PDP per access).
//
// Usage, from the root of a checkout (perfbench/run.sh builds pdpd and
// this binary from source, then runs it):
//
//	bash perfbench/run.sh --workload warm-miss --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the run spawns pdpd (2 shards x 2 replicas, 30s decision
// cache, WAL in a fresh data dir, policy lint gate "warn") five times to
// time set-up, keeps the last instance and drives it from this one process
// over at most nproc persistent connections:
//
//   - a warm-up at the low rate (not measured);
//   - two fixed-rate phases, low and high (a quarter of --seconds each);
//   - a rate ladder for the knee (the rest of --seconds): the highest
//     rate at which p99 <= 20ms, failures < 0.1% and the backlog does not
//     grow by more than 10ms over a rung;
//   - on read-only workloads, a closed-loop probe of probeWrites policy
//     writes.
//
// Arrivals are Poisson, pre-generated and pre-encoded from --seed, and
// each request is timed from its scheduled send instant to its decoded
// reply, so a stall counts against every request queued behind it. An
// in-process plain-walk engine (pdp.WithoutCompilation) over the same
// policy base and subject directory predicts every decision; a wrong
// conclusive decision fails the run. Server CPU and peak RSS are read from
// /proc/<pid>; harness CPU from the harness's own rusage. Timings and
// server CPU are taken from the half-second windows in which the
// hypervisor stole at most 2% of the machine's CPU (see quiet).
//
// With --trace 1 the run instead spawns this binary in -serve mode, which
// assembles the same server in-process from the constructors pdpd uses,
// with span recorders around each seam. It runs the low rate untraced and
// then traced, and reports per-layer self times and counter deltas; the
// p50 difference between the two phases is the tracing overhead.
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Every metric is also printed above it by name with its unit, together
// with the run's provenance (pdpd argv, source revision, nproc,
// GOMAXPROCS, Go version, seed); those marked "not gated" are left out of
// the JSON line (see report).
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// kneeP99 is the latency limit of the knee: a rung keeps up only if its
// p99 stays at or below it.
const kneeP99 = 20 * time.Millisecond

// setupRepeats is how many times a run sets up a server; setup_s is the
// median.
const setupRepeats = 5

// probeWrites is the size of the write probe run on read-only workloads:
// enough that its p95 has ten samples beyond it in each half.
const probeWrites = 400

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	spec     spec
	seed     int64
	seconds  int
	pdpd     string
	self     string
	workRoot string
	nproc    int
}

// run is the entry point; exit codes are 0 for a correct run, 1 for a run
// whose checks failed (a result line with "correct": false is printed) and
// 2 for a run that could not be made.
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	wl := fl.String("workload", "", "workload: warm-miss, cold-pip or churn-hot")
	seed := fl.Int64("seed", 1, "input seed")
	seconds := fl.Int("seconds", 30, "measured seconds per run")
	traced := fl.Int("trace", 0, "1 runs the traced in-process server and reports per-layer metrics")
	pdpdBin := fl.String("pdpd", ".bench_build/pdpd", "pdpd binary")
	work := fl.String("work", ".bench_build/work", "scratch directory for policy files and WAL data dirs")
	serveAddr := fl.String("serve", "", "serve the traced in-process decision server on this address")
	policyPath := fl.String("policy", "", "policy file (-serve)")
	subjectsPath := fl.String("subjects", "", "subject directory file (-serve)")
	dataDir := fl.String("data-dir", "", "WAL data directory (-serve)")
	spansPath := fl.String("spans", "", "file the recorded spans are written to (-serve)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *serveAddr != "" {
		if err := serveTraced(ctx, *serveAddr, *policyPath, *subjectsPath, *dataDir, *spansPath); err != nil {
			return fail(err)
		}
		return 0
	}

	s, err := lookupSpec(*wl)
	if err != nil {
		return fail(err)
	}
	if *seconds < 4 || *traced < 0 || *traced > 1 {
		return fail(fmt.Errorf("need --seconds >= 4 and --trace 0 or 1"))
	}
	if _, err := os.Stat(*pdpdBin); err != nil {
		return fail(fmt.Errorf("pdpd binary: %w", err))
	}
	self, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	// The harness holds every pre-encoded request of a phase; a lazier GC
	// keeps its collections from stalling the client mid-phase.
	debug.SetGCPercent(400)
	opt := options{
		spec: s, seed: *seed, seconds: *seconds, pdpd: *pdpdBin, self: self,
		workRoot: filepath.Join(*work, fmt.Sprintf("%s-%d-%d", s.name, *seed, os.Getpid())),
		nproc:    runtime.NumCPU(),
	}
	if err := os.MkdirAll(opt.workRoot, 0o755); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(opt.workRoot)

	var rep *report
	if *traced == 1 {
		rep, err = runTraced(ctx, opt)
	} else {
		rep, err = runE2E(ctx, opt)
	}
	if err != nil {
		return fail(err)
	}
	rep.print(stdout, opt)
	if !rep.correct {
		for _, p := range rep.problems {
			fmt.Fprintf(stderr, "perfbench: FAIL: %s\n", p)
		}
		return 1
	}
	return 0
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics, its extra diagnostics and its checks.
// Metrics set with info are printed with the others but left out of the
// result line: they are measured on every run, but on a shared 2-CPU host
// whose hypervisor steals up to a third of the CPU in bursts, their
// spread across runs (a third or more of the median for p99, write
// latency, the knee and p50 at the high rate) is wider than any bound the
// benchmark may gate on.
type report struct {
	metrics   map[string]metric
	infos     map[string]bool
	order     []string
	notes     []string
	attempted int
	failed    int
	correct   bool
	problems  []string
	argv      []string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, infos: map[string]bool{}, correct: true}
}

func (r *report) set(name string, v float64, unit string) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) info(name string, v float64, unit string) {
	r.set(name, v, unit)
	r.infos[name] = true
}

func (r *report) note(format string, a ...any) { r.notes = append(r.notes, fmt.Sprintf(format, a...)) }

func (r *report) fail(format string, a ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, a...))
}

// check folds a phase's outcome into the run's counts and correctness.
func (r *report) check(name string, p phaseResult, w writeResult) {
	r.attempted += p.attempted + w.attempted
	r.failed += p.failed + w.failed
	if p.wrong > 0 {
		r.fail("%s: %d wrong conclusive decisions; first: %s", name, p.wrong, p.firstWrong)
	}
}

func (r *report) print(w io.Writer, opt options) {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	gated := map[string]metric{}
	for _, name := range r.order {
		m := r.metrics[name]
		tag := ""
		if r.infos[name] {
			tag = " (not gated)"
		} else {
			gated[name] = m
		}
		fmt.Fprintf(w, "%-36s %14.4f %s%s\n", name, m.Value, m.Unit, tag)
	}
	prov := map[string]any{
		"workload":   opt.spec.name,
		"seed":       opt.seed,
		"seconds":    opt.seconds,
		"server":     r.argv,
		"revision":   revision(),
		"nproc":      opt.nproc,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"low_rps":    opt.spec.low,
		"high_rps":   opt.spec.high,
	}
	if data, err := json.Marshal(prov); err == nil {
		fmt.Fprintf(w, "provenance %s\n", data)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, max(r.attempted, 1), r.failed, gated}
	data, _ := json.Marshal(out)
	fmt.Fprintln(w, string(data))
}

// pdpdArgs is the operator's command line: flags a deployment would set,
// nothing that only a test or an ablation uses.
func pdpdArgs(in *inputs, addr, dataDir string) []string {
	args := []string{
		"-policy", in.policyPath,
		"-addr", addr,
		"-shards", "2",
		"-replicas", "2",
		"-cache", "30s",
		"-data-dir", dataDir,
		"-policy-lint", "warn",
	}
	if in.spec.cold {
		args = append(args, "-subjects", in.subjectsPath)
	}
	return args
}

// setup writes the files the server reads (policy base, subject directory)
// and starts a server over them, timing both: the set-up a deployment pays
// before its first decision. The harness's own inputs (the oracle, the
// rewrite policies, the request stream) are built afterwards, outside the
// timed part, so that set-up time follows the server rather than the
// harness.
func setup(ctx context.Context, opt options, k int, traced bool) (*inputs, *server, time.Duration, error) {
	dir := filepath.Join(opt.workRoot, fmt.Sprintf("setup-%d", k))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, 0, err
	}
	t0 := time.Now()
	in, err := newInputs(opt.spec, opt.seed, dir)
	if err != nil {
		return nil, nil, 0, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, nil, 0, err
	}
	dataDir := filepath.Join(dir, "data")
	bin, args := opt.pdpd, pdpdArgs(in, addr, dataDir)
	if traced {
		bin = opt.self
		args = []string{"-serve", addr, "-policy", in.policyPath, "-data-dir", dataDir,
			"-spans", filepath.Join(dir, "spans.json")}
		if opt.spec.cold {
			args = append(args, "-subjects", in.subjectsPath)
		}
	}
	srv, err := spawn(ctx, bin, args, addr, filepath.Join(dir, "server.log"))
	if err != nil {
		return nil, nil, 0, err
	}
	return in, srv, time.Since(t0), nil
}

// phaseSpec is one fixed-rate phase of a run.
type phaseSpec struct {
	rate float64
	dur  time.Duration
}

// batches pre-generates and pre-encodes the fixed phases, in order.
func batches(in *inputs, phases ...phaseSpec) ([]*batch, error) {
	var out []*batch
	for _, p := range phases {
		b, err := in.batch(p.rate, p.dur)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// runE2E is the untraced run: end-to-end metrics against spawned pdpd.
func runE2E(ctx context.Context, opt options) (*report, error) {
	s := opt.spec
	total := time.Duration(opt.seconds) * time.Second
	fixed := total / 4
	warmDur := time.Second
	rep := newReport()

	var (
		in     *inputs
		srv    *server
		setups []float64
	)
	for k := 0; k < setupRepeats; k++ {
		if srv != nil {
			srv.stop()
		}
		var took time.Duration
		var err error
		in, srv, took, err = setup(ctx, opt, k, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer srv.stop()
	rep.argv = srv.argv
	rep.note("setup_s samples %v", setups)
	rep.set("setup_s", median(setups), "s")
	t0 := time.Now()
	if err := in.prepare(); err != nil {
		return nil, err
	}
	bs, err := batches(in, phaseSpec{s.low, warmDur}, phaseSpec{s.low, fixed}, phaseSpec{s.high, fixed})
	if err != nil {
		return nil, err
	}
	rep.note("oracle built and request stream encoded in %.3fs", time.Since(t0).Seconds())

	c := newClient(ctx, srv.addr, opt.nproc)
	defer c.close()
	clientCPU0 := rusage()
	steal0, ticks0 := stealTicks()

	warmRes, warmW := c.run(bs[0], in.writes(bs[0]), 2*time.Second)
	rep.check("warm-up", warmRes, warmW)

	// Timings and server CPU come only from windows the hypervisor left
	// alone (see quiet); counts and correctness cover every request.
	var writeLat []time.Duration
	phases := map[string]phaseResult{}
	for i, name := range []string{"low", "high"} {
		b := bs[i+1]
		var p phaseResult
		var w writeResult
		ws, err := srv.metered(func() { p, w = c.run(b, in.writes(b), 2*time.Second) })
		if err == nil {
			err = ctx.Err()
		}
		if err != nil {
			return nil, err
		}
		rep.check(name, p, w)
		phases[name] = p
		kept := quiet(ws)
		lat := pick(p.lat, inWindows(p.start, b.at, kept))
		writeLat = append(writeLat, pick(w.lat, inWindows(w.start, w.sent, kept))...)
		if name == "low" {
			rep.set("p50_ms.low", ms(quantile(lat, 0.50)), "ms")
		} else {
			rep.info("p50_ms.high", ms(quantile(lat, 0.50)), "ms")
		}
		rep.info("p99_ms."+name, ms(blockQuantile(lat, 0.99)), "ms")
		if name == "low" {
			var cpu time.Duration
			for _, w := range kept {
				cpu += w.cpu
			}
			rep.set("cpu_us_per_decision", us(cpu)/float64(max(len(lat), 1)), "us")
		}
		rep.note("phase %s: rate %.0f/s, %d attempted, %d failed, %d writes (%d failed), %d timed in %d of %d windows (stolen %s), whole-phase p99 %.3fms, queue max %d, lag p50 %.3fms p99 %.3fms",
			name, b.rate, p.attempted, p.failed, w.attempted, w.failed, len(lat), len(kept), len(ws), stolenList(ws),
			ms(quantile(p.lat, 0.99)), p.queueMax, ms(quantile(p.lag, 0.5)), ms(quantile(p.lag, 0.99)))
	}

	knee, rungs, err := ladder(c, srv, in, total-2*fixed)
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return nil, err
	}
	for _, r := range rungs {
		rep.note("rung %.0f/s: p99 %.3fms, %d/%d failed, backlog growth %.3fms, stolen %.1f%%, ok=%v",
			r.rate, ms(blockQuantile(r.lat, 0.99)), r.failed, r.attempted, ms(r.backlogGrowth), 100*r.stolen, r.ok())
		if r.wrong > 0 {
			rep.fail("ladder rung %.0f/s: %d wrong conclusive decisions; first: %s", r.rate, r.wrong, r.firstWrong)
		}
	}
	rep.info("knee_rps", knee, "1/s")

	fixedAttempted, fixedFailed := 0, 0
	for _, p := range phases {
		fixedAttempted += p.attempted
		fixedFailed += p.failed + p.wrong
	}
	if s.writeEvery == 0 {
		var w writeResult
		ws, err := srv.metered(func() { w = c.writes(in.probeWrites(probeWrites), time.Now(), time.Minute) })
		if err != nil {
			return nil, err
		}
		rep.check("write probe", phaseResult{}, w)
		writeLat = pick(w.lat, inWindows(w.start, w.sent, quiet(ws)))
		fixedAttempted += w.attempted
		fixedFailed += w.failed
	}
	rep.set("success_frac", 1-float64(fixedFailed)/float64(max(fixedAttempted, 1)), "ratio")
	rep.info("fail_frac", float64(fixedFailed)/float64(max(fixedAttempted, 1)), "ratio")
	rss, err := srv.peakRSS()
	if err != nil {
		rep.fail("read server RSS: %v", err)
	}
	rep.set("rss_mb", float64(rss)/(1<<20), "MB")
	rep.info("write_p50_ms", ms(quantile(writeLat, 0.50)), "ms")
	rep.info("write_p95_ms", ms(blockQuantile(writeLat, 0.95)), "ms")
	rep.note("writes timed: %d", len(writeLat))

	decisions := warmRes.attempted
	for _, p := range phases {
		decisions += p.attempted
	}
	for _, r := range rungs {
		decisions += r.attempted
	}
	rep.note("harness CPU %.1f us/decision over %d decisions", float64(rusage()-clientCPU0)/1e3/float64(max(decisions, 1)), decisions)
	steal1, ticks1 := stealTicks()
	rep.note("CPU time stolen by the hypervisor during the measured phases: %.2f%%", 100*ratio(float64(steal1-steal0), float64(ticks1-ticks0)))
	rep.note("connections opened: %d (cap %d)", c.conns.Load(), opt.nproc)
	if n := c.conns.Load(); n > int64(opt.nproc) {
		rep.fail("%d connections opened, more than nproc=%d", n, opt.nproc)
	}
	return rep, nil
}

// ladder searches for the knee within budget with rungs of 1.5s. It
// starts at the workload's seed knee and steps by 1.2x, up while rungs
// pass and down while they fail, until the verdict flips. Then it bisects
// geometrically between the highest passing and lowest failing rates. The
// knee is the highest passing rate.
func ladder(c *client, srv *server, in *inputs, budget time.Duration) (float64, []phaseResult, error) {
	const rung = 1500 * time.Millisecond
	lo, hi := 0.0, math.Inf(1)
	var rungs []phaseResult
	for spent := time.Duration(0); spent+rung <= budget && c.ctx.Err() == nil; spent += rung {
		if !math.IsInf(hi, 1) && lo > 0 && hi/lo < 1.02 {
			break
		}
		rate := in.spec.knee
		if lo > 0 || !math.IsInf(hi, 1) {
			rate = ladderNext(lo, hi)
		}
		b, err := in.batch(rate, rung)
		if err != nil {
			return 0, rungs, err
		}
		var p phaseResult
		ws, err := srv.metered(func() { p, _ = c.run(b, in.writes(b), 100*time.Millisecond) })
		if err != nil {
			return 0, rungs, err
		}
		for _, w := range ws {
			p.stolen = max(p.stolen, w.stolen)
		}
		rungs = append(rungs, p)
		if p.ok() {
			lo = rate
		} else {
			hi = rate
		}
		c.sleep(100 * time.Millisecond)
	}
	return lo, rungs, nil
}

// ladderNext is the next rung of the knee search: geometric steps of
// 1.2x until a rung fails, then geometric bisection between the highest
// passing and lowest failing rates.
func ladderNext(lo, hi float64) float64 {
	switch {
	case math.IsInf(hi, 1):
		return lo * 1.2
	case lo == 0:
		return hi / 1.2
	default:
		return math.Sqrt(lo * hi)
	}
}

// pick returns the samples whose flag is set.
func pick(samples []time.Duration, keep []bool) []time.Duration {
	var out []time.Duration
	for i, k := range keep {
		if k {
			out = append(out, samples[i])
		}
	}
	return out
}

func stolenList(ws []window) string {
	parts := make([]string, len(ws))
	for i, w := range ws {
		parts[i] = fmt.Sprintf("%.0f%%", 100*w.stolen)
	}
	return strings.Join(parts, " ")
}

// rusage is this process's user+system CPU time in nanoseconds.
func rusage() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// revision names the measured source: the git commit when the checkout is
// a repository, otherwise a digest of every Go source and module file.
func revision() string {
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return "unknown"
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
