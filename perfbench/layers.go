package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// runTraced is the per-layer run: the traced in-process server at the low
// rate, first with recording off and then on.
func runTraced(ctx context.Context, opt options) (*report, error) {
	s := opt.spec
	total := time.Duration(opt.seconds) * time.Second
	phase := total * 2 / 5
	warmDur := time.Second
	rep := newReport()
	in, srv, _, err := setup(ctx, opt, 0, true)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	if err := in.prepare(); err != nil {
		return nil, err
	}
	bs, err := batches(in, phaseSpec{s.low, warmDur}, phaseSpec{s.low, phase}, phaseSpec{s.low, phase})
	if err != nil {
		return nil, err
	}
	rep.argv = srv.argv
	c := newClient(ctx, srv.addr, opt.nproc)
	defer c.close()

	warm, ww := c.run(bs[0], in.writes(bs[0]), 2*time.Second)
	rep.check("warm-up", warm, ww)
	plain, pw := c.run(bs[1], in.writes(bs[1]), 2*time.Second)
	rep.check("untraced", plain, pw)

	if err := c.get("/bench/trace", nil); err != nil {
		return nil, err
	}
	serverCPU0, err := srv.cpu()
	if err != nil {
		return nil, err
	}
	cpu0 := rusage()
	traced, tw := c.run(bs[2], in.writes(bs[2]), 2*time.Second)
	clientCPU := rusage() - cpu0
	serverCPU1, err := srv.cpu()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rep.check("traced", traced, tw)
	if s.writeEvery == 0 {
		probe := c.writes(in.probeWrites(probeWrites), time.Now(), time.Minute)
		rep.check("write probe", phaseResult{}, probe)
	}
	var st layerStats
	if err := c.get("/bench/report", &st); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(opt.workRoot, "setup-0", st.SpansFile))
	if err != nil {
		return nil, err
	}
	var spans []spanRec
	if err := json.Unmarshal(data, &spans); err != nil {
		return nil, err
	}
	tree := newSpanTree(spans)

	ingress := tree.durations(spanIngress, false)
	wireSelf := tree.durations(spanIngress, true)
	codecSelf := tree.durations(spanHandler, true)
	decide := tree.durations(spanDecide, false)
	resolve := tree.durations(spanResolve, false)
	puts := tree.durations(spanPut, true)
	decisions := float64(max(len(ingress), 1))
	writes := float64(max(len(puts), 1))

	rep.set("wire.ingress_us.mean", us(mean(ingress)), "us")
	rep.set("wire.ingress_self_us.mean", us(mean(wireSelf)), "us")
	rep.set("wire.ingress_self_us.p99", us(quantile(wireSelf, 0.99)), "us")
	rep.set("xacml.codec_self_us", us(mean(codecSelf)), "us")
	rep.set("cluster.decide_us.mean", us(mean(decide)), "us")
	rep.set("cluster.decide_us.p99", us(quantile(decide, 0.99)), "us")
	// The self times above add back to the ingress spans by construction,
	// so the spans are checked against two figures taken without them:
	// the client's round trips, each of which contains one ingress span
	// (so every quantile of the spans is at most the same quantile of the
	// round trips), and the server's CPU time from /proc over the same
	// phase, whose share outside the spans (net/http connection handling,
	// the runtime, admin writes) is reported rather than assumed away.
	ingressOfClient := ratio(us(quantile(ingress, 0.5)), us(quantile(served(traced.lat), 0.5)))
	rep.set("trace.ingress_client_frac", ingressOfClient, "ratio")
	if ingressOfClient < ingressClientMin || ingressOfClient > 1 {
		rep.fail("traced ingress p50 is %.3f of the client's p50 round trip, outside [%.2f, 1]", ingressOfClient, ingressClientMin)
	}
	uncovered := 1 - ratio(float64(sum(ingress)), float64(serverCPU1-serverCPU0))
	rep.set("trace.uncovered_cpu_frac", uncovered, "ratio")
	if uncovered < 0 || uncovered > uncoveredCPUMax {
		rep.fail("%.3f of the server's CPU lies outside the ingress spans, outside [0, %.2f]", uncovered, uncoveredCPUMax)
	}
	rep.set("pdp.cache_hit_ratio", ratio(float64(st.CacheHits), float64(st.CacheHits+st.Evaluations)), "ratio")
	rep.set("pdp.compiled_frac", ratio(float64(st.Compiled), float64(st.Evaluations)), "ratio")
	rep.set("pdp.invalidations_per_write", float64(st.Invalidations)/writes, "count")
	rep.set("pdp.compile_us", ratio(float64(st.CompileNanos)/1e3, float64(st.Compiles)), "us")
	rep.set("pip.resolve_us", us(mean(resolve)), "us")
	rep.set("pip.resolves_per_decision", float64(len(resolve))/decisions, "count")
	rep.set("pip.cache_hit_ratio", ratio(float64(st.PIPHits), float64(st.PIPHits+st.PIPMisses)), "ratio")
	rep.set("pap.put_self_us", us(mean(puts)), "us")
	rep.set("analysis.gate_us", us(mean(tree.durations(spanGate, false))), "us")
	rep.set("cluster.apply_update_us", us(mean(tree.durations(spanApply, false))), "us")
	rep.set("store.fsyncs_per_write", float64(st.Fsyncs)/writes, "count")
	rep.set("runtime.gc_cpu_frac", ratio(st.GCCPUSeconds, st.UsedCPUSeconds), "ratio")
	rep.set("runtime.allocs_per_decision", float64(st.Allocs)/decisions, "count")
	rep.set("wire.req_bytes", ratio(float64(traced.reqBytes), float64(traced.attempted)), "bytes")
	rep.set("wire.resp_bytes", ratio(float64(traced.respBytes), float64(traced.attempted)), "bytes")
	rep.set("wire.conns_opened", float64(c.conns.Load()), "count")
	rep.set("loadgen.lag_p99_ms", ms(quantile(traced.lag, 0.99)), "ms")
	rep.set("loadgen.client_cpu_us_per_decision", float64(clientCPU)/1e3/float64(max(traced.attempted, 1)), "us")
	rep.set("loadgen.queue_max", float64(traced.queueMax), "count")
	rep.set("trace.overhead_p50_ms", ms(quantile(traced.lat, 0.5))-ms(quantile(plain.lat, 0.5)), "ms")
	rep.note("traced phase: %d decisions, %d spans, %d writes; untraced p50 %.3fms, traced p50 %.3fms",
		len(ingress), len(spans), len(puts), ms(quantile(plain.lat, 0.5)), ms(quantile(traced.lat, 0.5)))
	if n := c.conns.Load(); n > int64(opt.nproc) {
		rep.fail("%d connections opened, more than nproc=%d", n, opt.nproc)
	}
	return rep, nil
}

// The stated ranges of the span checks. An ingress span sits inside the
// client's round trip, so it can be no longer; on this benchmark's
// loopback traffic its median has been 0.28 to 0.35 of the round trip's,
// and below ingressClientMin the recorder has lost most of the server's
// handling. The server's CPU outside the ingress spans has been 0.37 to
// 0.43 of it; above uncoveredCPUMax the spans miss nearly all of it, and
// below zero they claim time the server never spent on a CPU.
const (
	ingressClientMin = 0.1
	uncoveredCPUMax  = 0.9
)

// spanTree indexes recorded spans by parent.
type spanTree struct {
	spans []spanRec
	kids  map[uint64][]int
}

func newSpanTree(spans []spanRec) *spanTree {
	t := &spanTree{spans: spans, kids: make(map[uint64][]int)}
	for i, s := range spans {
		if s.Parent != 0 {
			t.kids[s.Parent] = append(t.kids[s.Parent], i)
		}
	}
	return t
}

// durations lists the duration of every span of a kind, or with self its
// self time: the duration minus the part of it the span's children cover.
func (t *spanTree) durations(kind spanKind, self bool) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Kind != kind {
			continue
		}
		d := s.End - s.Start
		if self {
			d -= t.covered(s)
		}
		out = append(out, time.Duration(d))
	}
	return out
}

// covered is the length of the union of s's children's intervals, clipped
// to s.
func (t *spanTree) covered(s spanRec) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range t.kids[s.ID] {
		c := t.spans[k]
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for _, v := range ivs {
		if v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

func sum(v []time.Duration) time.Duration {
	var total time.Duration
	for _, d := range v {
		total += d
	}
	return total
}

func mean(v []time.Duration) time.Duration {
	if len(v) == 0 {
		return 0
	}
	return sum(v) / time.Duration(len(v))
}

// served drops the failed samples, which hold failedLatency.
func served(lat []time.Duration) []time.Duration {
	var out []time.Duration
	for _, d := range lat {
		if d != failedLatency {
			out = append(out, d)
		}
	}
	return out
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
