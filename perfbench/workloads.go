package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/pdp"
	"repro/internal/pip"
	"repro/internal/policy"
	"repro/internal/wire"
	"repro/internal/workload"
	"repro/internal/xacml"
)

// Population shape shared by every workload: the 256-resource base whose
// per-resource policies workload.ResourcePolicy builds, 16 roles, Zipf(1.2)
// resource popularity and an 80/20 read/write action mix.
const (
	resources    = 256
	roles        = 16
	zipfS        = 1.2
	readFraction = 0.8
	rootID       = "bench-root"
)

// spec is one workload: a traffic mix and the fixed rates it is measured
// at. The low and high rates sit at 25% and 50% of the knee the workload
// showed on a shared 2-vCPU virtual machine when the benchmark was
// introduced; they are fixed so that every later commit is measured at
// the same offered load. Above half the knee, queueing turns the host's
// scheduling noise into run-to-run latency spreads wider than the
// benchmark's bounds.
type spec struct {
	name  string
	users int
	// cold requests carry no subject attributes: pdpd resolves the role
	// through its -subjects directory (the PIP) mid-evaluation.
	cold bool
	// jsonCodec sends JSON request contexts instead of XML ones.
	jsonCodec bool
	// writeEvery is how many read arrivals each /admin/policy rewrite
	// beside the reads comes with, so the write rate follows the read rate;
	// zero means reads only (write latency is then probed after the read
	// phases, on an idle server).
	writeEvery int
	// knee is where the rate ladder starts: the knee the workload showed
	// when the benchmark was introduced.
	knee      float64
	low, high float64
}

var specs = []spec{
	// The paper's PEP->PDP call in its interop codec: warm XML contexts
	// over a 10k-user population, so almost every decision misses the
	// decision cache and runs the compiled miss path; wire and xacml
	// decoding dominate.
	{name: "warm-miss", users: 10000, knee: 3600, low: 900, high: 1800},
	// Same traffic shape without subject attributes, as JSON contexts:
	// the only workload where the PIP resolves, and its codec share
	// differs from warm-miss, so a codec gain and a PIP gain each predict
	// "no change" on the other workload.
	{name: "cold-pip", users: 50000, cold: true, jsonCodec: true, knee: 3900, low: 975, high: 1950},
	// A hot 8-user population that hits the decision cache, with policy
	// rewrites beside the reads: the cache-hit path and the whole write
	// path (pap, analysis gate, WAL, cluster ApplyUpdate, invalidation)
	// run here and nowhere else. One rewrite rides every 64th arrival, the
	// ratio of loadgen's policy-churn scenario: about 14/s at the low rate
	// and 29/s at the high one.
	{name: "churn-hot", users: 8, writeEvery: 64, knee: 3700, low: 925, high: 1850},
}

func lookupSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// batch is one phase's pre-generated, pre-encoded traffic: Poisson
// arrival offsets, the envelope bytes to POST for each arrival, and the
// decision the oracle predicts for it.
type batch struct {
	rate float64
	dur  time.Duration
	at   []time.Duration
	body [][]byte
	want []policy.Decision
}

// writeBatch is a phase's /admin/policy traffic: arrival offsets and the
// pre-encoded policy documents to POST.
type writeBatch struct {
	at   []time.Duration
	body [][]byte
	// closed marks a back-to-back probe: every offset is zero and each
	// write waits for the previous acknowledgement.
	closed bool
}

// inputs generates every input of a run from the seed. Request draws,
// arrival gaps and write targets come from separate streams, so changing
// one phase's rate does not reshuffle the requests of the next.
type inputs struct {
	spec     spec
	dir      string
	gen      *workload.Generator
	arrivals *rand.Rand
	writeRng *rand.Rand
	root     *policy.PolicySet
	subjects []pip.Subject
	oracle   *pdp.Engine
	memo     map[string]policy.Decision
	serial   int
	// policies holds the JSON document of every resource policy; an
	// admin rewrite POSTs one of them unchanged, so expected decisions
	// stay fixed under churn.
	policies [][]byte

	policyPath, subjectsPath string
}

// newInputs writes the files the server reads under dir: the policy base
// and, for cold workloads, the subject directory. The harness's own inputs
// come later, from prepare.
func newInputs(s spec, seed int64, dir string) (*inputs, error) {
	cfg := workload.Config{
		Users: s.users, Resources: resources, Roles: roles,
		ZipfS: zipfS, ReadFraction: readFraction, Seed: seed,
	}
	gen := workload.NewGenerator(cfg)
	root := gen.PolicyBase(rootID)
	in := &inputs{
		spec:     s,
		dir:      dir,
		gen:      gen,
		root:     root,
		arrivals: rand.New(rand.NewSource(seed ^ 0x5eed_a771)),
		writeRng: rand.New(rand.NewSource(seed ^ 0x0add_beef)),
		memo:     make(map[string]policy.Decision),
	}
	doc, err := xacml.MarshalXML(root)
	if err != nil {
		return nil, fmt.Errorf("encode policy base: %w", err)
	}
	in.policyPath = filepath.Join(dir, "policy.xml")
	if err := os.WriteFile(in.policyPath, doc, 0o644); err != nil {
		return nil, err
	}
	if s.cold {
		if err := in.writeSubjects(); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// writeSubjects renders the population in pdpd's -subjects format: user i
// holds role i mod roles.
func (in *inputs) writeSubjects() error {
	type subject struct {
		ID    string   `json:"id"`
		Roles []string `json:"roles"`
	}
	subjects := make([]subject, in.spec.users)
	in.subjects = make([]pip.Subject, in.spec.users)
	for i := range subjects {
		subjects[i] = subject{ID: workload.UserID(i), Roles: []string{workload.RoleID(i % roles)}}
		in.subjects[i] = pip.Subject{ID: subjects[i].ID, Roles: subjects[i].Roles}
	}
	data, err := json.Marshal(subjects)
	if err != nil {
		return err
	}
	in.subjectsPath = filepath.Join(in.dir, "subjects.json")
	return os.WriteFile(in.subjectsPath, data, 0o644)
}

// prepare builds what only the harness needs: the oracle, an uncompiled
// plain-walk engine over the same base and the same subject directory,
// which predicts every decision the server must return, and the encoded
// policies the admin rewrites POST.
func (in *inputs) prepare() error {
	opts := []pdp.Option{pdp.WithoutCompilation()}
	if in.spec.cold {
		dir := pip.NewDirectory("oracle-subjects")
		for _, sub := range in.subjects {
			dir.AddSubject(sub)
		}
		opts = append(opts, pdp.WithResolver(dir))
	}
	in.oracle = pdp.New("oracle", opts...)
	if err := in.oracle.SetRoot(in.root); err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	in.policies = make([][]byte, resources)
	for i := range in.policies {
		var err error
		if in.policies[i], err = xacml.MarshalJSON(workload.ResourcePolicy(i, roles)); err != nil {
			return fmt.Errorf("encode policy %d: %w", i, err)
		}
	}
	return nil
}

// poisson draws arrival offsets at the given rate over dur.
func poisson(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var at []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return at
		}
		at = append(at, d)
	}
}

// envelopeEpoch stamps every envelope, so the same seed yields the same
// bytes. Unsigned envelopes carry no freshness check.
var envelopeEpoch = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)

// batch pre-generates and pre-encodes one phase at the given rate.
func (in *inputs) batch(rate float64, dur time.Duration) (*batch, error) {
	b := &batch{rate: rate, dur: dur, at: poisson(in.arrivals, rate, dur)}
	b.body = make([][]byte, len(b.at))
	b.want = make([]policy.Decision, len(b.at))
	var arena []byte
	offs := make([]int, len(b.at)+1)
	for i := range b.at {
		var req *policy.Request
		if in.spec.cold {
			req = in.gen.NextRequest()
		} else {
			req = in.gen.WarmRequest()
		}
		want, err := in.expect(req)
		if err != nil {
			return nil, err
		}
		b.want[i] = want
		var body []byte
		if in.spec.jsonCodec {
			body, err = xacml.MarshalRequestJSON(req)
		} else {
			body, err = xacml.MarshalRequestXML(req)
		}
		if err != nil {
			return nil, fmt.Errorf("encode request: %w", err)
		}
		in.serial++
		env := &wire.Envelope{
			MessageID: fmt.Sprintf("perfbench-%d", in.serial),
			From:      "perfbench",
			To:        "pdpd",
			Action:    "pdp:decide",
			Timestamp: envelopeEpoch.Add(time.Duration(in.serial) * time.Microsecond),
			Body:      body,
		}
		data, err := env.EncodeXML()
		if err != nil {
			return nil, err
		}
		arena = append(arena, data...)
		offs[i+1] = len(arena)
	}
	for i := range b.body {
		b.body[i] = arena[offs[i]:offs[i+1]:offs[i+1]]
	}
	return b, nil
}

// expect asks the oracle for the decision, memoised per cache key.
func (in *inputs) expect(req *policy.Request) (policy.Decision, error) {
	key := req.CacheKey()
	if d, ok := in.memo[key]; ok {
		return d, nil
	}
	res := in.oracle.Decide(context.Background(), req)
	if res.Decision == policy.DecisionIndeterminate || res.Decision == policy.DecisionNotApplicable {
		return 0, fmt.Errorf("oracle: inconclusive %v for %s", res.Decision, key)
	}
	in.memo[key] = res.Decision
	return res.Decision, nil
}

// writes pre-generates the policy rewrites that ride a read batch, due
// with every writeEvery-th arrival, each targeting a uniformly drawn
// resource.
func (in *inputs) writes(b *batch) *writeBatch {
	w := &writeBatch{}
	if in.spec.writeEvery <= 0 {
		return w
	}
	for i := in.spec.writeEvery - 1; i < len(b.at); i += in.spec.writeEvery {
		w.at = append(w.at, b.at[i])
		w.body = append(w.body, in.policies[in.writeRng.Intn(resources)])
	}
	return w
}

// probeWrites is the closed-loop write probe of read-only workloads: n
// rewrites sent back to back on an otherwise idle server.
func (in *inputs) probeWrites(n int) *writeBatch {
	w := &writeBatch{at: make([]time.Duration, n), body: make([][]byte, n), closed: true}
	for i := range w.body {
		w.body[i] = in.policies[in.writeRng.Intn(resources)]
	}
	return w
}
