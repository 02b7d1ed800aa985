package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptrace"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/policy"
	"repro/internal/wire"
	"repro/internal/xacml"
)

// failedLatency stands in for the latency of a failed or abandoned
// request: it misses every latency limit, so it sorts above every real
// sample.
const failedLatency = time.Duration(math.MaxInt64)

// client is the open-loop load generator's transport: one http.Transport
// capped at nproc persistent connections, shared by decisions and admin
// writes, so at most nproc requests are ever in flight. Connections are
// counted as they are dialled.
type client struct {
	base  string
	nproc int
	hc    *http.Client
	ctx   context.Context
	conns atomic.Int64
}

func newClient(ctx context.Context, addr string, nproc int) *client {
	c := &client{base: "http://" + addr, nproc: nproc}
	c.hc = &http.Client{
		Timeout: 5 * time.Second,
		Transport: &http.Transport{
			DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
			MaxConnsPerHost:     nproc,
			MaxIdleConns:        nproc,
			MaxIdleConnsPerHost: nproc,
			IdleConnTimeout:     10 * time.Minute,
			DisableCompression:  true,
		},
	}
	c.ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		ConnectDone: func(_, _ string, err error) {
			if err == nil {
				c.conns.Add(1)
			}
		},
	})
	return c
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// sleep waits for d or until the run is cancelled.
func (c *client) sleep(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-c.ctx.Done():
	}
}

// post sends body to path and reads the whole reply into buf.
func (c *client) post(path, contentType string, body []byte, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequestWithContext(c.ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

func (c *client) get(path string, out any) error {
	req, err := http.NewRequestWithContext(c.ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, data)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// decide POSTs one pre-encoded envelope and decodes the decision. Any
// transport error, non-200 reply or undecodable body is an error.
func (c *client) decide(body []byte, buf *bytes.Buffer) (policy.Decision, int, error) {
	status, err := c.post("/decide", "application/xml", body, buf)
	if err != nil {
		return 0, 0, err
	}
	n := buf.Len()
	if status != http.StatusOK {
		return 0, n, fmt.Errorf("decide: HTTP %d: %.200s", status, buf.Bytes())
	}
	env, err := wire.DecodeXML(buf.Bytes())
	if err != nil {
		return 0, n, err
	}
	res, err := xacml.UnmarshalResponseXML(env.Body)
	if err != nil {
		return 0, n, err
	}
	return res.Decision, n, nil
}

// phaseResult is what one open-loop phase measured. Latencies run from
// each request's scheduled send instant to its decoded reply; a failed
// request records failedLatency.
type phaseResult struct {
	start      time.Time
	rate       float64
	lat        []time.Duration
	attempted  int
	failed     int
	wrong      int
	firstWrong string
	// lag holds, for requests whose worker was idle at the due instant,
	// how late the send actually started: the generator's own lateness.
	lag []time.Duration
	// queueMax is the most arrivals ever due but not yet sent.
	queueMax int
	// backlogGrowth is how much longer, on average, arrivals of the last
	// fifth of the phase waited for a free worker than those of the first
	// fifth: a backlog that grows over the phase.
	backlogGrowth time.Duration
	// stolen is the largest share of CPU time the hypervisor stole in any
	// metered window of the phase.
	stolen              float64
	reqBytes, respBytes int64
}

type worker struct {
	lag                 []time.Duration
	queueMax            int
	failed, wrong       int
	firstWrong          string
	reqBytes, respBytes int64
}

// run drives one phase open-loop: arrivals are due on the batch schedule
// whether or not earlier requests have finished, nproc workers send them
// in order, and a request still unsent grace after the phase ends is
// abandoned as failed. Admin writes in w, if any, run beside the reads on
// the same clock and the same connections.
func (c *client) run(b *batch, w *writeBatch, grace time.Duration) (phaseResult, writeResult) {
	n := len(b.at)
	res := phaseResult{rate: b.rate, attempted: n, lat: make([]time.Duration, n)}
	wait := make([]time.Duration, n)
	start := time.Now().Add(time.Millisecond)
	res.start = start
	cutoff := b.dur + grace
	var next atomic.Int64
	var wg sync.WaitGroup
	var wres writeResult
	if w != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wres = c.writes(w, start, cutoff)
		}()
	}
	workers := make([]worker, c.nproc)
	for k := range workers {
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			buf := new(bytes.Buffer)
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := b.at[i]
				now := time.Since(start)
				from := due
				if now < due {
					// An idle worker's timer may fire late; that slack is
					// the generator's, reported as lag, so the request is
					// timed from the actual send. A request that came due
					// while both workers were busy is timed from its due
					// instant, so queueing behind a slow reply counts.
					c.sleep(due - now)
					now = time.Since(start)
					wk.lag = append(wk.lag, now-due)
					from = now
				} else {
					q := sort.Search(n, func(j int) bool { return b.at[j] > now }) - i
					wk.queueMax = max(wk.queueMax, q)
					wait[i] = now - due
				}
				if now > cutoff || c.ctx.Err() != nil {
					res.lat[i] = failedLatency
					wk.failed++
					continue
				}
				got, nresp, err := c.decide(b.body[i], buf)
				done := time.Since(start)
				wk.reqBytes += int64(len(b.body[i]))
				wk.respBytes += int64(nresp)
				switch {
				case err != nil, got == policy.DecisionIndeterminate:
					res.lat[i] = failedLatency
					wk.failed++
				case got != b.want[i]:
					res.lat[i] = failedLatency
					wk.wrong++
					if wk.firstWrong == "" {
						wk.firstWrong = fmt.Sprintf("request %d: got %v, oracle says %v", i, got, b.want[i])
					}
				default:
					res.lat[i] = done - from
				}
			}
		}(&workers[k])
	}
	wg.Wait()
	for _, wk := range workers {
		res.lag = append(res.lag, wk.lag...)
		res.queueMax = max(res.queueMax, wk.queueMax)
		res.failed += wk.failed
		res.wrong += wk.wrong
		if res.firstWrong == "" {
			res.firstWrong = wk.firstWrong
		}
		res.reqBytes += wk.reqBytes
		res.respBytes += wk.respBytes
	}
	res.backlogGrowth = meanWait(b, wait, 4*b.dur/5, b.dur) - meanWait(b, wait, 0, b.dur/5)
	return res, wres
}

// meanWait is the mean time arrivals due in [from, to) waited for a free
// worker.
func meanWait(b *batch, wait []time.Duration, from, to time.Duration) time.Duration {
	var sum time.Duration
	n := 0
	for i, due := range b.at {
		if due >= from && due < to {
			sum += wait[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// ok reports whether a rung kept up: p99 within the latency limit, under
// 0.1% failures, and a backlog that did not grow by more than half the
// latency limit over the rung.
func (r phaseResult) ok() bool {
	if r.attempted == 0 {
		return false
	}
	return blockQuantile(r.lat, 0.99) <= kneeP99 &&
		float64(r.failed+r.wrong) < 0.001*float64(r.attempted) &&
		r.backlogGrowth <= kneeP99/2
}

// writeResult is one run of admin writes; sent holds each write's send
// offset from start.
type writeResult struct {
	start     time.Time
	lat       []time.Duration
	sent      []time.Duration
	attempted int
	failed    int
}

// writes sends a write batch from one goroutine. Scheduled writes are
// timed from their due instant; a closed-loop probe times each write from
// its own POST.
func (c *client) writes(w *writeBatch, start time.Time, cutoff time.Duration) writeResult {
	res := writeResult{start: start, attempted: len(w.at),
		lat: make([]time.Duration, len(w.at)), sent: make([]time.Duration, len(w.at))}
	buf := new(bytes.Buffer)
	for i, due := range w.at {
		if now := time.Since(start); now < due {
			c.sleep(due - now)
		}
		sentAt := time.Since(start)
		res.sent[i] = sentAt
		if sentAt > cutoff || c.ctx.Err() != nil {
			res.lat[i] = failedLatency
			res.failed++
			continue
		}
		from := due
		if w.closed {
			from = sentAt
		}
		status, err := c.post("/admin/policy", "application/json", w.body[i], buf)
		done := time.Since(start)
		var ack struct {
			Version int `json:"version"`
		}
		if err == nil && status == http.StatusOK {
			err = json.Unmarshal(buf.Bytes(), &ack)
		}
		if err != nil || status != http.StatusOK || ack.Version < 1 {
			res.lat[i] = failedLatency
			res.failed++
			continue
		}
		res.lat[i] = done - from
	}
	return res
}

// quantile is the exact q-quantile of the samples (nearest rank on the
// sorted copy); failed samples count as failedLatency.
func quantile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(idx, 0), len(s)-1)]
}

// blockQuantile is the median, across blocks of consecutive samples, of
// each block's q-quantile, where a block is just large enough that its
// q-quantile has ten samples beyond it (1000 for p99). A stall on the
// shared machine then moves one block's tail instead of the whole
// phase's. With fewer than two blocks it is the plain quantile.
func blockQuantile(samples []time.Duration, q float64) time.Duration {
	block := int(math.Ceil(10 / (1 - q)))
	n := len(samples) / block
	if n < 2 {
		return quantile(samples, q)
	}
	per := make([]float64, n)
	for i := range per {
		hi := (i + 1) * block
		if i == n-1 {
			hi = len(samples)
		}
		per[i] = float64(quantile(samples[i*block:hi], q))
	}
	return time.Duration(median(per))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
