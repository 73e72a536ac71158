package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"os"
	"time"

	fast "github.com/fastfhe/fast"
)

// The replay runs a workload's own request bodies through the public
// functions fastd calls, in the same order, each inside a span. The wire
// shapes below mirror fastd's; the replay output is checked against what
// fastd served, so a drifted mirror fails the run instead of timing the wrong
// work.

type wireEval struct {
	Inputs  map[string]string `json:"inputs"`
	Program json.RawMessage   `json:"program"`
	Output  string            `json:"output"`
}

type wireCiphertext struct {
	Ciphertext string  `json:"ciphertext"`
	Level      int     `json:"level"`
	Scale      float64 `json:"scale"`
}

type wireComplex struct {
	Re float64 `json:"re"`
	Im float64 `json:"im"`
}

type wireValues struct {
	Values []wireComplex `json:"values"`
}

type wireIdemRecord struct {
	Key    string `json:"key"`
	Status int    `json:"status"`
	Body   []byte `json:"body"`
}

// replayer times one session's share of the layers.
type replayer struct {
	ctx   *fast.Context
	spans *spanLog
}

// layerTimes accumulates one replayed op's time per metric.
type layerTimes struct {
	decode, encode, fingerprint, compile, execute, encrypt, decrypt, journal time.Duration
}

// decodeCiphertext is fastd's ciphertext decode: base64, then ReadCiphertext.
func (r *replayer) decodeCiphertext(job int, b64 string) (*fast.Ciphertext, error) {
	var raw []byte
	var err error
	r.spans.timed("codec.base64_decode", -1, job, func() { raw, err = base64.StdEncoding.DecodeString(b64) })
	if err != nil {
		return nil, err
	}
	var ct *fast.Ciphertext
	r.spans.timed("codec.read_ciphertext", -1, job, func() { ct, err = r.ctx.ReadCiphertext(bytes.NewReader(raw)) })
	return ct, err
}

// encodeCiphertext is fastd's ciphertext response: Serialize, base64, JSON.
func (r *replayer) encodeCiphertext(job int, ct *fast.Ciphertext) ([]byte, error) {
	var out []byte
	var err error
	r.spans.timed("codec.encode", -1, job, func() {
		var buf bytes.Buffer
		if err = ct.Serialize(&buf); err != nil {
			return
		}
		out, err = json.Marshal(wireCiphertext{
			Ciphertext: base64.StdEncoding.EncodeToString(buf.Bytes()),
			Level:      ct.Level(), Scale: ct.Scale(),
		})
	})
	return append(out, '\n'), err
}

// eval replays one /eval body and returns the response body fastd would
// send.
func (r *replayer) eval(job int, body []byte, t *layerTimes) ([]byte, error) {
	t0 := time.Now()
	var wire wireEval
	prog := &fast.Program{}
	var err error
	r.spans.timed("codec.json_decode", -1, job, func() {
		if err = json.Unmarshal(body, &wire); err == nil {
			err = json.Unmarshal(wire.Program, prog)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("replay eval decode: %w", err)
	}
	inputs := make(map[string]*fast.Ciphertext, len(wire.Inputs))
	levels := make(map[string]int, len(wire.Inputs))
	for name, b64 := range wire.Inputs {
		ct, err := r.decodeCiphertext(job, b64)
		if err != nil {
			return nil, fmt.Errorf("replay eval input %q: %w", name, err)
		}
		inputs[name], levels[name] = ct, ct.Level()
	}
	t.decode += time.Since(t0)

	t.fingerprint += r.spans.timed("plan.fingerprint", -1, job, func() { _ = r.ctx.PlanFingerprint(prog, levels) })
	var plan *fast.Plan
	t.compile += r.spans.timed("plan.compile", -1, job, func() {
		if err = prog.Validate(); err == nil {
			plan, err = r.ctx.Plan(prog, levels)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("replay plan: %w", err)
	}
	var out *fast.Ciphertext
	t.execute += r.spans.timed("exec.execute", -1, job, func() {
		out, err = r.ctx.Execute(context.Background(), plan, inputs)
	})
	if err != nil {
		return nil, fmt.Errorf("replay execute: %w", err)
	}
	t1 := time.Now()
	resp, err := r.encodeCiphertext(job, out)
	t.encode += time.Since(t1)
	return resp, err
}

// encrypt replays one /encrypt body.
func (r *replayer) encrypt(job int, body []byte, t *layerTimes) ([]byte, error) {
	var req wireValues
	var err error
	t.decode += r.spans.timed("codec.json_decode", -1, job, func() { err = json.Unmarshal(body, &req) })
	if err != nil {
		return nil, err
	}
	var ct *fast.Ciphertext
	t.encrypt += r.spans.timed("exec.encrypt", -1, job, func() {
		vals := make([]complex128, len(req.Values))
		for i, v := range req.Values {
			vals[i] = complex(v.Re, v.Im)
		}
		ct, err = r.ctx.Encrypt(vals)
	})
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	resp, err := r.encodeCiphertext(job, ct)
	t.encode += time.Since(t0)
	return resp, err
}

// decrypt replays one /decrypt body and returns the decrypted slots.
func (r *replayer) decrypt(job int, body []byte, t *layerTimes) ([]complex128, error) {
	t0 := time.Now()
	var req wireCiphertext
	var err error
	r.spans.timed("codec.json_decode", -1, job, func() { err = json.Unmarshal(body, &req) })
	if err != nil {
		return nil, err
	}
	ct, err := r.decodeCiphertext(job, req.Ciphertext)
	if err != nil {
		return nil, err
	}
	t.decode += time.Since(t0)
	var vals []complex128
	t.decrypt += r.spans.timed("exec.decrypt", -1, job, func() { vals = r.ctx.Decrypt(ct) })
	t.encode += r.spans.timed("codec.encode", -1, job, func() {
		out := wireValues{Values: make([]wireComplex, len(vals))}
		for i, v := range vals {
			out.Values[i] = wireComplex{real(v), imag(v)}
		}
		_, err = json.Marshal(out)
	})
	return vals, err
}

// journal replays fastd's idempotency-journal append: one JSON record line
// appended to a file and fsync'd.
func (r *replayer) journal(job int, path, key string, body []byte, t *layerTimes) error {
	var err error
	t.journal += r.spans.timed("persist.journal_append", -1, job, func() {
		var line []byte
		if line, err = json.Marshal(wireIdemRecord{Key: key, Status: 200, Body: body}); err != nil {
			return
		}
		var f *os.File
		if f, err = os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
			return
		}
		if _, err = f.Write(append(line, '\n')); err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	})
	return err
}

// readSnapshot times a session restore from fastd's snapshot file: read,
// verify, expand keys.
func readSnapshot(spans *spanLog, path string) (*fast.Context, time.Duration, error) {
	var ctx *fast.Context
	var err error
	d := spans.timed("persist.snapshot_read", -1, -1, func() {
		var data []byte
		if data, err = os.ReadFile(path); err == nil {
			ctx, _, err = fast.ReadSessionSnapshot(bytes.NewReader(data))
		}
	})
	return ctx, d, err
}

// writeSnapshot times fastd's snapshot write path into dir: serialize
// through a buffered writer, flush, fsync, close. It returns the size.
func writeSnapshot(spans *spanLog, ctx *fast.Context, dir string, meta fast.SessionMeta) (time.Duration, int64, error) {
	var size int64
	var err error
	d := spans.timed("persist.snapshot_write", -1, -1, func() {
		var f *os.File
		if f, err = os.CreateTemp(dir, "snap-*"); err != nil {
			return
		}
		defer os.Remove(f.Name())
		bw := bufio.NewWriterSize(f, 1<<20)
		if err = ctx.WriteSessionSnapshot(bw, meta); err == nil {
			if err = bw.Flush(); err == nil {
				err = f.Sync()
			}
		}
		if st, serr := f.Stat(); serr == nil {
			size = st.Size()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	})
	return d, size, err
}

// setReplayLayers reports the replayed per-op times and their layer shares.
func setReplayLayers(o *outcome, t layerTimes, n int, m *layerShares) {
	per := func(d time.Duration) float64 { return ms(d) / float64(n) }
	o.set("codec.decode_ms", "ms", per(t.decode))
	o.set("codec.encode_ms", "ms", per(t.encode))
	o.set("plan.fingerprint_ms", "ms", per(t.fingerprint))
	o.set("plan.compile_ms", "ms", per(t.compile))
	o.set("exec.execute_ms", "ms", per(t.execute))
	o.set("persist.journal_ms", "ms", per(t.journal))
	m.codec = per(t.decode) + per(t.encode)
	m.plan = per(t.fingerprint) + per(t.compile)*o.metrics["plan_cache.misses"].Value
	m.exec = per(t.encrypt) + per(t.execute) + per(t.decrypt)
	m.persist += per(t.journal)
}
