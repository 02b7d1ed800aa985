package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/ha"
	"repro/internal/pap"
	"repro/internal/pdp"
	"repro/internal/pip"
	"repro/internal/policy"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/xacml"
)

// spanKind names the seam a span was recorded at. Each seam is the call
// into one layer, so a span's self time is that layer's own work.
type spanKind uint8

const (
	spanIngress spanKind = iota // http.Handler: wire.HTTPHandler (read, envelope codec, write)
	spanHandler                 // wire.Handler: pdp.Handler (request/response context codec)
	spanDecide                  // pdp.Provider: cluster.Router.Decide (ha, pdp engine)
	spanResolve                 // policy.Resolver: the PIP chain
	spanPut                     // pap.Store.Put of an admin write (pap, WAL commit)
	spanGate                    // pap PreCommit hook: the analysis gate
	spanApply                   // pap Watch callback: cluster.Router.ApplyUpdate
)

// spanRec is one recorded span; times are nanoseconds since the
// recorder's base instant.
type spanRec struct {
	Kind   spanKind `json:"k"`
	ID     uint64   `json:"i"`
	Parent uint64   `json:"p"`
	Start  int64    `json:"s"`
	End    int64    `json:"e"`
}

type spanKey struct{}

// recorder keeps spans in memory while recording is on; they are written
// out once, when the run asks for its report.
type recorder struct {
	on    atomic.Bool
	ids   atomic.Uint64
	base  time.Time
	mu    sync.Mutex
	spans []spanRec
	// put is the ID of the Store.Put span in progress: the store
	// serialises writers, and its hooks receive no context.
	put atomic.Uint64
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// begin opens a span under the one ctx carries; ok is false while
// recording is off, and the caller then runs untouched.
func (r *recorder) begin(ctx context.Context) (context.Context, spanRec, bool) {
	if !r.on.Load() {
		return ctx, spanRec{}, false
	}
	parent, _ := ctx.Value(spanKey{}).(uint64)
	sp := spanRec{ID: r.ids.Add(1), Parent: parent, Start: r.now()}
	return context.WithValue(ctx, spanKey{}, sp.ID), sp, true
}

func (r *recorder) end(kind spanKind, sp spanRec) {
	sp.Kind, sp.End = kind, r.now()
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
}

func (r *recorder) ingress(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		ctx, sp, ok := r.begin(req.Context())
		if !ok {
			next.ServeHTTP(w, req)
			return
		}
		next.ServeHTTP(w, req.WithContext(ctx))
		r.end(spanIngress, sp)
	})
}

func (r *recorder) handler(next wire.Handler) wire.Handler {
	return func(ctx context.Context, call *wire.Call, env *wire.Envelope) (*wire.Envelope, error) {
		ctx, sp, ok := r.begin(ctx)
		if !ok {
			return next(ctx, call, env)
		}
		reply, err := next(ctx, call, env)
		r.end(spanHandler, sp)
		return reply, err
	}
}

type tracedProvider struct {
	rec  *recorder
	next pdp.Provider
}

func (p tracedProvider) Decide(ctx context.Context, req *policy.Request) policy.Result {
	ctx, sp, ok := p.rec.begin(ctx)
	if !ok {
		return p.next.Decide(ctx, req)
	}
	res := p.next.Decide(ctx, req)
	p.rec.end(spanDecide, sp)
	return res
}

type tracedResolver struct {
	rec  *recorder
	next policy.Resolver
}

func (t tracedResolver) ResolveAttribute(ctx context.Context, req *policy.Request, cat policy.Category, name string) (policy.Bag, error) {
	ctx, sp, ok := t.rec.begin(ctx)
	if !ok {
		return t.next.ResolveAttribute(ctx, req, cat, name)
	}
	bag, err := t.next.ResolveAttribute(ctx, req, cat, name)
	t.rec.end(spanResolve, sp)
	return bag, err
}

// hook records a span around a store hook, parented on the Put in
// progress.
func (r *recorder) hook(kind spanKind, f func()) {
	if !r.on.Load() {
		f()
		return
	}
	sp := spanRec{ID: r.ids.Add(1), Parent: r.put.Load(), Start: r.now()}
	f()
	r.end(kind, sp)
}

// layerStats are the server-side counter deltas over the traced phase.
type layerStats struct {
	CacheHits, Evaluations, Compiled, Invalidations int64
	Compiles, CompileNanos                          int64
	PIPHits, PIPMisses                              int64
	Fsyncs                                          uint64
	GCCPUSeconds, UsedCPUSeconds                    float64
	Allocs                                          uint64
	SpansFile                                       string
}

// snapshot reads every counter layerStats is a delta of.
type snapshot struct {
	engine pdp.Stats
	pip    pip.CacheStats
	log    store.Stats
	gc     float64
	used   float64
	allocs uint64
}

// tracedServer is pdpd assembled in-process from the same constructors,
// with span recorders around each seam.
type tracedServer struct {
	rec    *recorder
	router *cluster.Router
	cache  *pip.Cache
	lg     *store.Log
	tracer *trace.Tracer
	audit  *audit.Log

	store     *pap.Store
	rootID    string
	combining policy.Algorithm
	rootSet   *policy.PolicySet
	lint      *analysis.Engine
	gate      *analysis.Gate

	spansPath string
	mu        sync.Mutex
	before    snapshot
}

func (t *tracedServer) snap() snapshot {
	s := snapshot{engine: t.router.EngineStats(), log: t.lg.Stats()}
	if t.cache != nil {
		s.pip = t.cache.Stats()
	}
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(samples)
	value := func(i int) float64 {
		if samples[i].Value.Kind() == metrics.KindFloat64 {
			return samples[i].Value.Float64()
		}
		return 0
	}
	s.gc = value(0)
	s.used = value(1) - value(2)
	if samples[3].Value.Kind() == metrics.KindUint64 {
		s.allocs = samples[3].Value.Uint64()
	}
	return s
}

// serveTraced runs the traced server until the benchmark stops it.
func serveTraced(ctx context.Context, addr, policyPath, subjectsPath, dataDir, spansPath string) error {
	data, err := os.ReadFile(policyPath)
	if err != nil {
		return err
	}
	root, err := xacml.UnmarshalXML(data)
	if err != nil {
		return err
	}
	set, ok := root.(*policy.PolicySet)
	if !ok {
		return fmt.Errorf("%s: root is not a policy set", policyPath)
	}
	lg, err := store.Open(dataDir, store.Options{SnapshotEvery: 1024})
	if err != nil {
		return err
	}
	defer lg.Close()
	reg := telemetry.NewRegistry()
	t := &tracedServer{
		rec: &recorder{base: time.Now()},
		lg:  lg,
		tracer: trace.NewTracer(trace.Options{
			Sample: 0.01, SlowThreshold: 250 * time.Millisecond, Capacity: 256,
		}),
		audit:     audit.NewLog(1024),
		store:     pap.NewStore("pdpd"),
		rootID:    set.ID,
		combining: set.Combining,
		rootSet:   set,
		spansPath: spansPath,
	}
	t.tracer.RegisterMetrics(reg)
	lg.RegisterMetrics(reg)
	opts := []pdp.Option{pdp.WithDecisionCache(30*time.Second, 0)}
	if subjectsPath != "" {
		dir, err := loadSubjects(subjectsPath)
		if err != nil {
			return err
		}
		t.cache = pip.NewCachedChain("pdpd-pip", 30*time.Second, dir)
		t.cache.RegisterMetrics(reg)
		opts = append(opts, pdp.WithResolver(tracedResolver{rec: t.rec, next: t.cache}))
	}
	t.router, err = cluster.New("pdpd", cluster.Config{
		Shards: 2, Replicas: 2, Strategy: ha.Failover, EngineOptions: opts,
	})
	if err != nil {
		return err
	}
	t.router.RegisterMetrics(reg)
	if err := t.initAdmin(lg); err != nil {
		return err
	}
	t.lint.RegisterMetrics(reg)
	t.gate.RegisterMetrics(reg)

	mux := http.NewServeMux()
	mux.Handle("/decide", t.rec.ingress(wire.HTTPHandler(
		t.rec.handler(pdp.Handler(tracedProvider{rec: t.rec, next: t.router})),
		wire.WithTracer(t.tracer))))
	mux.HandleFunc("/admin/policy", t.handlePolicy)
	mux.Handle("/metrics", reg.Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) { fmt.Fprintln(w, "ok") })
	mux.HandleFunc("/bench/trace", t.handleTrace)
	mux.HandleFunc("/bench/report", t.handleReport)
	server := &http.Server{
		Addr:              addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- server.ListenAndServe() }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return server.Shutdown(shutCtx)
	}
}

// initAdmin mirrors pdpd's administration plane: the WAL hydrates the
// store, the file seeds policies the store has never seen, the assembled
// root is installed, writes flow to the router through the delta path,
// and the analysis gate (mode warn) runs as the store's pre-commit hook.
func (t *tracedServer) initAdmin(lg *store.Log) error {
	if err := lg.Bootstrap(t.store, nil, t.rootID, t.combining); err != nil {
		return err
	}
	for _, ch := range t.rootSet.Children {
		if t.store.History(ch.EntityID()) > 0 {
			continue
		}
		if _, err := t.store.Put(ch); err != nil {
			return err
		}
	}
	if err := t.installRoot(); err != nil {
		return err
	}
	t.store.Watch(func(u pap.Update) { t.rec.hook(spanApply, func() { t.apply(u) }) })
	t.lint = analysis.NewEngine(analysis.Config{RootCombining: t.combining})
	err := t.store.WatchInstall(func(s *pap.Store) error {
		var children []policy.Evaluable
		for _, id := range s.List() {
			e, err := s.Get(id)
			if err != nil {
				return err
			}
			children = append(children, e)
		}
		t.lint.Install(children...)
		return nil
	}, func(u pap.Update) {
		if u.Deleted {
			t.lint.Apply(u.ID, nil)
		} else {
			t.lint.Apply(u.ID, u.Policy)
		}
	})
	if err != nil {
		return err
	}
	t.gate = analysis.NewGate(t.lint, analysis.ModeWarn)
	t.store.PreCommit(func(u pap.Update) error {
		var err error
		t.rec.hook(spanGate, func() {
			ev := u.Policy
			if u.Deleted {
				ev = nil
			}
			_, err = t.gate.Check(u.ID, ev)
		})
		return err
	})
	return nil
}

func (t *tracedServer) installRoot() error {
	built, err := t.store.BuildRoot(t.rootID, t.combining)
	if err != nil {
		return err
	}
	built.Target = t.rootSet.Target
	built.Obligations = t.rootSet.Obligations
	return t.router.SetRoot(built)
}

func (t *tracedServer) apply(u pap.Update) {
	err := t.router.ApplyUpdate(pdp.Update{ID: u.ID, Child: u.Policy})
	if errors.Is(err, pdp.ErrNotIncremental) {
		err = t.installRoot()
	}
	if err != nil {
		log.Printf("perfbench: policy refresh %s: %v", u.ID, err)
	}
}

// handlePolicy serves POST /admin/policy as pdpd does: preview the lint
// findings, store the policy (gate, WAL, watchers), audit and acknowledge.
func (t *tracedServer) handlePolicy(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	start := time.Now()
	ctx, span := t.tracer.StartRoot(r.Context(), "admin/policy")
	defer span.End()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var e policy.Evaluable
	if bytes.HasPrefix(bytes.TrimSpace(body), []byte("<")) {
		e, err = xacml.UnmarshalXML(body)
	} else {
		e, err = xacml.UnmarshalJSON(body)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	id := e.EntityID()
	findings := t.lint.Preview(id, e).Findings

	var version int
	if t.rec.on.Load() {
		sp := spanRec{ID: t.rec.ids.Add(1), Start: t.rec.now()}
		t.rec.put.Store(sp.ID)
		version, err = t.store.Put(e)
		t.rec.end(spanPut, sp)
	} else {
		version, err = t.store.Put(e)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	traceID := trace.CurrentID(ctx)
	t.audit.Record(audit.Event{
		Time: time.Now(), Component: "pdpd/admin", Subject: "admin", Resource: id,
		Action: "put", Decision: policy.DecisionPermit, By: "policy-lint:warn",
		Latency: time.Since(start), TraceID: traceID,
	})
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(struct {
		ID       string             `json:"id"`
		Version  int                `json:"version"`
		Lint     string             `json:"lint"`
		Findings []analysis.Finding `json:"findings,omitempty"`
		TraceID  string             `json:"trace_id,omitempty"`
	}{id, version, "warn", findings, traceID})
}

// handleTrace switches recording on and takes the counter baseline.
func (t *tracedServer) handleTrace(w http.ResponseWriter, _ *http.Request) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.before = t.snap()
	t.rec.on.Store(true)
	fmt.Fprintln(w, "{}")
}

// handleReport stops recording, writes the spans out and answers the
// counter deltas since recording started.
func (t *tracedServer) handleReport(w http.ResponseWriter, _ *http.Request) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rec.on.Store(false)
	after := t.snap()
	t.rec.mu.Lock()
	spans := t.rec.spans
	t.rec.spans = nil
	t.rec.mu.Unlock()
	data, err := json.Marshal(spans)
	if err == nil {
		err = os.WriteFile(t.spansPath, data, 0o644)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	b := t.before
	st := layerStats{
		CacheHits:      after.engine.CacheHits - b.engine.CacheHits,
		Evaluations:    after.engine.Evaluations - b.engine.Evaluations,
		Compiled:       after.engine.CompiledEvaluations - b.engine.CompiledEvaluations,
		Invalidations:  after.engine.CacheInvalidations - b.engine.CacheInvalidations,
		Compiles:       after.engine.Compiles - b.engine.Compiles,
		CompileNanos:   after.engine.CompileNanos - b.engine.CompileNanos,
		PIPHits:        after.pip.Hits - b.pip.Hits,
		PIPMisses:      after.pip.Misses - b.pip.Misses,
		Fsyncs:         after.log.Fsyncs - b.log.Fsyncs,
		GCCPUSeconds:   after.gc - b.gc,
		UsedCPUSeconds: after.used - b.used,
		Allocs:         after.allocs - b.allocs,
		SpansFile:      filepath.Base(t.spansPath),
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(st)
}

// loadSubjects reads pdpd's -subjects format into a directory.
func loadSubjects(path string) (*pip.Directory, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var entries []struct {
		ID    string   `json:"id"`
		Roles []string `json:"roles"`
	}
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	dir := pip.NewDirectory("pdpd-subjects")
	for _, e := range entries {
		dir.AddSubject(pip.Subject{ID: e.ID, Roles: e.Roles})
	}
	return dir, nil
}
