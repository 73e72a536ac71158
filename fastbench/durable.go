package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"time"

	fast "github.com/fastfhe/fast"
)

// serve-durable: a closed loop of durableCallers callers over
// durableSessions sessions under -state-dir with 4 resident. Each job picks
// its session by Zipf (s = 1.2; see zipfSequence) and makes three requests:
// /encrypt of fresh values; /eval of a depth-4 program with an
// Idempotency-Key (x^2, x^4, x^8, rotate by 1 and add, times 0.5, square:
// Muls at levels 5, 4, 3 and 1); /decrypt, checked against the plaintext
// result. Writes (encrypt, a journal fsync per eval, snapshot-on-evict), lazy
// restores, plan-cache misses after each restore and key switches at every
// level are the persistence layer's and Aether's per-level choice's work.
//
// The load is a closed loop, not an open loop at a fixed rate: on a 2-vCPU
// host whose speed swung up to 2x between runs, the open loop at 10 jobs/s
// queued those swings into a p99 spread of 0.45 over five seeds, where the
// closed loop, run interleaved with it, spread 0.10.
const (
	durableSessions = 6
	durableCallers  = 2
	durableZipfS    = 1.2
	durableBlock    = 45 // jobs per stratified block
	// durableInputs is how many distinct plaintext vectors the jobs cycle
	// through.
	durableInputs = 64
	// durableTol bounds |decrypted - plaintext| per slot after depth 5 at
	// log_scale 36.
	durableTol = 1e-3
	// durableSamples is how many of the traced window's jobs the replay
	// runs: every durableSampleEvery-th.
	durableSamples     = 12
	durableSampleEvery = 20
	// snapshotWrites is how many snapshot writes the replay times.
	snapshotWrites = 3
)

// durableInput is one plaintext vector: its /encrypt body and the job's
// expected result.
type durableInput struct {
	encrypt []byte
	want    []float64
}

type durableJob struct {
	session int
	key     string
	in      *durableInput
}

// jobSample keeps one served job's bodies for the replay.
type jobSample struct {
	job                         durableJob
	evalBody, evalResp, decBody []byte
}

type durable struct {
	seed       int64
	params     []sessionParams
	sessions   []string
	evalPrefix []byte
	evalSuffix []byte
	inputs     []durableInput
	picks      []int // session of job j is picks[j % len(picks)]
	next       int   // first job of the next window
}

// prepare builds every input from the seed, before anything is timed.
func (w *durable) prepare(cfg *runConfig) error {
	w.seed = cfg.seed
	rng := rand.New(rand.NewSource(cfg.seed))
	// Four times the closed-loop capacity: the picks never repeat in a run.
	w.picks = zipfSequence(rng, int(120*cfg.seconds))
	for i := 0; i < durableSessions; i++ {
		w.params = append(w.params, newSessionParams(cfg.seed*1000+10+int64(i)))
	}
	prog := fast.NewProgram().In("x").
		Mul("x2", "x", "x").Mul("x4", "x2", "x2").Mul("x8", "x4", "x4").
		Rotate("r", "x8", 1).Add("s", "x8", "r").MulConst("h", "s", 0.5).Mul("y", "h", "h").
		Return("y")
	progJSON, err := json.Marshal(prog)
	if err != nil {
		return err
	}
	w.evalPrefix = []byte(`{"inputs":{"x":"`)
	w.evalSuffix = append(append([]byte(`"},"program":`), progJSON...), '}')

	n := 1 << (w.params[0].LogN - 1)
	for k := 0; k < durableInputs; k++ {
		x := make([]wireComplex, n)
		for i := range x {
			x[i].Re = 2*rng.Float64() - 1
		}
		want := make([]float64, n)
		for i := range want {
			a, b := math.Pow(x[i].Re, 8), math.Pow(x[(i+1)%n].Re, 8)
			want[i] = 0.25 * (a + b) * (a + b)
		}
		body, err := json.Marshal(wireValues{Values: x})
		if err != nil {
			return err
		}
		w.inputs = append(w.inputs, durableInput{encrypt: body, want: want})
	}
	return nil
}

// job returns job j of the run.
func (w *durable) job(j int) durableJob {
	return durableJob{session: w.picks[j%len(w.picks)], key: fmt.Sprintf("job-%d-%d", w.seed, j),
		in: &w.inputs[j%len(w.inputs)]}
}

// zipfSequence returns n session picks with Zipf(durableZipfS) frequencies.
// Each block of durableBlock consecutive picks holds every session's share
// (largest remainder) in seeded random order: the frequencies of independent
// Zipf draws, with less run-to-run variance in how often an evicted session
// comes back, which sets the tail latency.
func zipfSequence(rng *rand.Rand, n int) []int {
	weights := make([]float64, durableSessions)
	var sum float64
	for k := range weights {
		weights[k] = math.Pow(float64(k+1), -durableZipfS)
		sum += weights[k]
	}
	counts := make([]int, durableSessions)
	left := durableBlock
	for k, w := range weights {
		counts[k] = int(durableBlock * w / sum)
		left -= counts[k]
	}
	for ; left > 0; left-- {
		best, bestFrac := 0, -1.0
		for k, w := range weights {
			exact := durableBlock * w / sum
			if frac := exact - float64(counts[k]); frac > bestFrac {
				best, bestFrac = k, frac
			}
		}
		counts[best]++
	}
	var block []int
	for k, c := range counts {
		for i := 0; i < c; i++ {
			block = append(block, k)
		}
	}
	out := make([]int, 0, n+durableBlock)
	for len(out) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out[:n]
}

// setup creates the sessions (two end up evicted to disk) and runs one job
// on each.
func (w *durable) setup(d *daemon) error {
	w.sessions = w.sessions[:0]
	for _, p := range w.params {
		id, err := d.createSession(p)
		if err != nil {
			return err
		}
		w.sessions = append(w.sessions, id)
	}
	var c caller
	for i := range w.sessions {
		job := durableJob{session: i, key: fmt.Sprintf("warm-up-%d-%d", w.seed, i), in: &w.inputs[i]}
		if problem, err := c.job(d, w, job, nil, -1, 0, nil); err != nil || problem != "" {
			return fmt.Errorf("warm-up job on session %d: %v %s", i, err, problem)
		}
	}
	return nil
}

// caller is one client goroutine's reusable buffers, byte counts and the
// time its last response was read.
type caller struct {
	resp, eval, dec bytes.Buffer
	sent, received  int64
	done            time.Time
}

// refusal is a request the degradation ladder turned away (429, 503, 504):
// a failed op, not a wrong one.
type refusal struct{ status int }

func (r refusal) Error() string { return fmt.Sprintf("refused with HTTP %d", r.status) }

// job runs the three requests of one job. err is a failed request (its
// problem is set when the failure is not a ladder refusal); problem alone is
// a wrong result.
func (c *caller) job(d *daemon, w *durable, j durableJob, spans *spanLog, root, id int,
	sample *jobSample) (problem string, err error) {
	base := "/v1/sessions/" + w.sessions[j.session]
	call := func(name string, body []byte, h http.Header) error {
		sid := spans.begin("http."+name, root, id, time.Now())
		status, err := d.post(base+"/"+name, body, h, &c.resp)
		c.done = time.Now()
		spans.end(sid, c.done)
		c.sent += int64(len(body))
		c.received += int64(c.resp.Len())
		if ok, p := classify(status, err); !ok {
			if p == "" {
				return refusal{status}
			}
			return fmt.Errorf("%s: %s", name, p)
		}
		return nil
	}
	if err := call("encrypt", j.in.encrypt, nil); err != nil {
		return "", err
	}
	ct, err := ciphertextField(c.resp.Bytes())
	if err != nil {
		return "", err
	}
	c.eval.Reset()
	c.eval.Write(w.evalPrefix)
	c.eval.Write(ct)
	c.eval.Write(w.evalSuffix)
	if err := call("eval", c.eval.Bytes(), http.Header{"Idempotency-Key": {j.key}}); err != nil {
		return "", err
	}
	if ct, err = ciphertextField(c.resp.Bytes()); err != nil {
		return "", err
	}
	c.dec.Reset()
	c.dec.WriteString(`{"ciphertext":"`)
	c.dec.Write(ct)
	c.dec.WriteString(`"}`)
	if sample != nil {
		sample.evalBody = bytes.Clone(c.eval.Bytes())
		sample.evalResp = bytes.Clone(c.resp.Bytes())
		sample.decBody = bytes.Clone(c.dec.Bytes())
	}
	if err := call("decrypt", c.dec.Bytes(), nil); err != nil {
		return "", err
	}
	var vals wireValues
	if err := json.Unmarshal(c.resp.Bytes(), &vals); err != nil {
		return fmt.Sprintf("decode decrypt response: %v", err), nil
	}
	return checkSlots(vals.Values, j.in.want, durableTol), nil
}

// window runs the closed loop; the replay keeps every
// durableSampleEvery-th job of a traced window.
func (w *durable) window(d *daemon, secs float64, spans *spanLog) *windowResult {
	first := w.next
	var callers [durableCallers]caller
	res := closedLoop(secs, spans, durableCallers, func(c, i, root int) opResult {
		job := w.job(first + i)
		var sample *jobSample
		if spans != nil && i%durableSampleEvery == 0 && i/durableSampleEvery < durableSamples {
			sample = &jobSample{job: job}
		}
		cl := &callers[c]
		problem, err := cl.job(d, w, job, spans, root, i, sample)
		r := opResult{done: cl.done, ok: err == nil && problem == "", sent: cl.sent, received: cl.received}
		cl.sent, cl.received = 0, 0
		if err != nil && !errors.As(err, new(refusal)) {
			problem = err.Error()
		}
		if problem != "" {
			r.problem = fmt.Sprintf("job %s: %s", job.key, problem)
		}
		if r.ok {
			r.sample = sample
		}
		return r
	})
	w.next = first + res.attempted
	return res
}

// replay times the window's own inputs through the public functions fastd
// calls and sets the replay-derived per-layer metrics.
func (w *durable) replay(cfg *runConfig, d *daemon, win *windowResult, o *outcome, m *layerShares) error {
	if len(win.samples) == 0 {
		return fmt.Errorf("serve-durable: no successful job to replay")
	}
	// Restore every sampled session from fastd's own snapshot.
	ctxs := map[int]*fast.Context{}
	var restore time.Duration
	for _, s := range win.samples {
		if ctxs[s.job.session] != nil {
			continue
		}
		path := filepath.Join(d.dir, "state", w.sessions[s.job.session]+".snap")
		ctx, took, err := readSnapshot(cfg.spans, path)
		if err != nil {
			return fmt.Errorf("replay restore %s: %w", path, err)
		}
		ctxs[s.job.session] = ctx
		restore += took
	}
	restoreMS := ms(restore) / float64(len(ctxs))

	first := ctxs[win.samples[0].job.session]
	var write time.Duration
	var size int64
	for i := 0; i < snapshotWrites; i++ {
		took, n, err := writeSnapshot(cfg.spans, first, cfg.tmp, fast.SessionMeta{ID: "replay"})
		if err != nil {
			return fmt.Errorf("replay snapshot write: %w", err)
		}
		write += took
		size = n
	}
	writeMS := ms(write) / snapshotWrites

	journal := filepath.Join(cfg.tmp, "replay.idem")
	var t layerTimes
	for i, s := range win.samples {
		r := &replayer{ctx: ctxs[s.job.session], spans: cfg.spans}
		job := replayJobBase + i
		if _, err := r.encrypt(job, s.job.in.encrypt, &t); err != nil {
			return fmt.Errorf("replay encrypt: %w", err)
		}
		resp, err := r.eval(job, s.evalBody, &t)
		if err != nil {
			return err
		}
		if !bytes.Equal(resp, s.evalResp) {
			o.problem("in-process replay of job %s's eval differs from fastd's response", s.job.key)
		}
		if err := r.journal(job, journal, s.job.key, s.evalResp, &t); err != nil {
			return fmt.Errorf("replay journal: %w", err)
		}
		vals, err := r.decrypt(job, s.decBody, &t)
		if err != nil {
			return fmt.Errorf("replay decrypt: %w", err)
		}
		got := make([]wireComplex, len(vals))
		for k, v := range vals {
			got[k] = wireComplex{real(v), imag(v)}
		}
		if p := checkSlots(got, s.job.in.want, durableTol); p != "" {
			o.problem("replayed job %s: %s", s.job.key, p)
		}
	}
	o.set("snapshot.restore_ms", "ms", restoreMS)
	o.set("snapshot.write_ms", "ms", writeMS)
	o.set("snapshot.bytes", "B", float64(size))
	setReplayLayers(o, t, len(win.samples), m)
	// A restore reads the snapshot and writes it back (its restore count
	// changed); evictions of clean sessions write no snapshot.
	m.persist += o.metrics["sessions.restored"].Value * (restoreMS + writeMS)
	return nil
}
