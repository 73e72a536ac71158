package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	fast "github.com/fastfhe/fast"
	"github.com/fastfhe/fast/internal/fault"
)

// evictAndRestore evicts a resident session in-process and faults it back
// in, returning the restored session and its shard.
func evictAndRestore(t *testing.T, d *daemon, id string) (*evalShard, *session) {
	t.Helper()
	sh, s, err := d.resolve(id)
	if err != nil {
		t.Fatal(err)
	}
	if !d.evictSession(sh, s) {
		t.Fatal("evict failed")
	}
	sh, s, err = d.resolve(id)
	if err != nil {
		t.Fatal(err)
	}
	return sh, s
}

// TestRestoreWritesOnlyTheEpoch: across evict→restore cycles the snapshot is
// never rewritten (its bytes stay as create wrote them), the journal within
// IdemCap is never rewritten, each restore bumps the durable epoch record,
// and every idempotent record still replays.
func TestRestoreWritesOnlyTheEpoch(t *testing.T) {
	dir := t.TempDir()
	d, ts := newTestDaemon(t, daemonConfig{StateDir: dir, IdemCap: 8})
	sr := createSession(t, ts.URL, testSessionRequest())
	snapPath := filepath.Join(dir, sr.ID+".snap")
	created, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	vals := fromComplex([]complex128{1, 2, 3, 4})
	for i := 0; i < 3; i++ {
		if st, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+sr.ID+"/encrypt",
			map[string]string{"Idempotency-Key": fmt.Sprintf("k%d", i)}, encryptRequest{Values: vals}, nil); st != http.StatusOK {
			t.Fatalf("encrypt k%d: status %d: %s", i, st, raw)
		}
	}
	for cycle := 1; cycle <= 3; cycle++ {
		_, s := evictAndRestore(t, d, sr.ID)
		if s.meta.Restores != uint64(cycle) || !s.persisted {
			t.Fatalf("cycle %d: restores=%d persisted=%v, want %d true", cycle, s.meta.Restores, s.persisted, cycle)
		}
		epoch, err := d.store.loadEpoch(sr.ID)
		if err != nil || epoch != uint64(cycle) {
			t.Fatalf("cycle %d: epoch record %d (%v), want %d", cycle, epoch, err, cycle)
		}
		now, err := os.ReadFile(snapPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(now, created) {
			t.Fatalf("cycle %d: the snapshot was rewritten", cycle)
		}
		for i := 0; i < 3; i++ {
			resp := idemProbe(t, ts.URL, sr.ID, fmt.Sprintf("k%d", i), vals)
			resp.Body.Close()
			if resp.Header.Get("Idempotency-Replayed") != "true" {
				t.Fatalf("cycle %d: key k%d did not replay", cycle, i)
			}
		}
	}
	if n := d.mJournalRewrites.Value(); n != 0 {
		t.Fatalf("fastd.store.journal_rewrites = %d, want 0 with the journal within IdemCap", n)
	}
	if d.mRestoreNs.Count() != 3 || d.mEvictNs.Count() != 3 {
		t.Fatalf("restore_ns/evict_ns observed %d/%d, want 3/3", d.mRestoreNs.Count(), d.mEvictNs.Count())
	}
}

// TestRestoreEpochSurvivesCrash: Meta.Restores strictly increases across
// restore → crash (a new daemon on the same directory) → restore, so the two
// restorations draw different encryption randomness for the same plaintext.
func TestRestoreEpochSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	dA, tsA := newTestDaemon(t, daemonConfig{StateDir: dir})
	sr := createSession(t, tsA.URL, testSessionRequest())
	vals := make([]complex128, sr.Slots)
	for i := range vals {
		vals[i] = complex(float64(i%3), 0.5)
	}
	_, s := evictAndRestore(t, dA, sr.ID)
	first := s.meta.Restores
	ctA := encryptValues(t, tsA.URL, sr.ID, vals)

	dB, tsB := newTestDaemon(t, daemonConfig{StateDir: dir})
	_, s, err := dB.resolve(sr.ID)
	if err != nil {
		t.Fatal(err)
	}
	if s.meta.Restores <= first {
		t.Fatalf("restores after crash = %d, want > %d", s.meta.Restores, first)
	}
	ctB := encryptValues(t, tsB.URL, sr.ID, vals)
	if ctA.Ciphertext == ctB.Ciphertext {
		t.Fatal("two restorations encrypted the same plaintext to the same ciphertext: encryption randomness reused")
	}
	for _, ct := range []string{ctA.Ciphertext, ctB.Ciphertext} {
		got := decryptValues(t, tsB.URL, sr.ID, ct)
		for i := range vals {
			if dv := got[i] - vals[i]; abs2(dv) > 1e-3 {
				t.Fatalf("slot %d: got %v, want %v", i, got[i], vals[i])
			}
		}
	}
}

// TestEpochWriteFaultDegrades: a restore whose epoch write fails is served
// resident-only (persisted=false), and its next evict writes a full snapshot
// carrying the bumped count, so the epoch is not lost.
func TestEpochWriteFaultDegrades(t *testing.T) {
	dir := t.TempDir()
	_, tsA := newTestDaemon(t, daemonConfig{StateDir: dir})
	sr := createSession(t, tsA.URL, testSessionRequest())

	d, ts := newTestDaemon(t, daemonConfig{StateDir: dir})
	d.store.inj = fault.NewInjector(fault.Plan{DiskWrite: 1, Seed: 3})
	sh, s, err := d.resolve(sr.ID)
	if err != nil {
		t.Fatal(err)
	}
	if s.persisted || s.meta.Restores != 1 {
		t.Fatalf("after a failed epoch write: persisted=%v restores=%d, want false 1", s.persisted, s.meta.Restores)
	}
	if _, err := os.Stat(filepath.Join(dir, sr.ID+".epoch")); !os.IsNotExist(err) {
		t.Fatalf("epoch record written despite injected faults (err=%v)", err)
	}
	if d.store.mWriteFailures.Value() == 0 {
		t.Fatal("fastd.store.write_failures did not count the failed epoch write")
	}
	encryptValues(t, ts.URL, sr.ID, make([]complex128, sr.Slots))

	d.store.inj = nil
	if !d.evictSession(sh, s) {
		t.Fatal("evict failed")
	}
	raw, err := os.ReadFile(filepath.Join(dir, sr.ID+".snap"))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := fast.DecodeSessionSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Meta.Restores != 1 {
		t.Fatalf("dirty evict wrote restores=%d, want the bumped 1", snap.Meta.Restores)
	}
	_, s, err = d.resolve(sr.ID)
	if err != nil {
		t.Fatal(err)
	}
	if s.meta.Restores != 2 || !s.persisted {
		t.Fatalf("next restore: restores=%d persisted=%v, want 2 true", s.meta.Restores, s.persisted)
	}
}

// TestCorruptEpochTombstones: an epoch record that fails its checksum is a
// corrupt session (410), never "assume epoch 0".
func TestCorruptEpochTombstones(t *testing.T) {
	dir := t.TempDir()
	d, ts := newTestDaemon(t, daemonConfig{StateDir: dir})
	sr := createSession(t, ts.URL, testSessionRequest())
	sh, s := evictAndRestore(t, d, sr.ID)
	if !d.evictSession(sh, s) {
		t.Fatal("evict failed")
	}
	path := filepath.Join(dir, sr.ID+".epoch")
	rec, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec[0] ^= 1
	if err := os.WriteFile(path, rec, 0o644); err != nil {
		t.Fatal(err)
	}
	status, body := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+sr.ID+"/encrypt", nil,
		encryptRequest{Values: fromComplex(make([]complex128, 4))}, nil)
	if status != http.StatusGone {
		t.Fatalf("request against a corrupt epoch record: status %d (%s), want 410", status, body)
	}
}

// TestLegacyJSONJournalRestores: a state directory written before the binary
// journal (JSON lines, no epoch record) restores with every record
// replaying byte-exactly, and the restore rewrites the journal as frames.
func TestLegacyJSONJournalRestores(t *testing.T) {
	dir := t.TempDir()
	_, tsA := newTestDaemon(t, daemonConfig{StateDir: dir})
	sr := createSession(t, tsA.URL, testSessionRequest())

	var legacy bytes.Buffer
	want := map[string][]byte{}
	for i := 0; i < 3; i++ {
		rec := idemRecord{Key: fmt.Sprintf("legacy-%d", i), Status: http.StatusOK, Body: []byte(fmt.Sprintf(`{"n":%d}`, i))}
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		legacy.Write(append(line, '\n'))
		want[rec.Key] = rec.Body
	}
	journal := filepath.Join(dir, sr.ID+".idem")
	if err := os.WriteFile(journal, legacy.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	d, ts := newTestDaemon(t, daemonConfig{StateDir: dir})
	vals := fromComplex([]complex128{1})
	for key, body := range want {
		resp := idemProbe(t, ts.URL, sr.ID, key, vals)
		got := readAll(t, resp.Body)
		resp.Body.Close()
		if resp.Header.Get("Idempotency-Replayed") != "true" || !bytes.Equal(got, body) {
			t.Fatalf("legacy key %s: replayed=%q body %q, want the journaled %q",
				key, resp.Header.Get("Idempotency-Replayed"), got, body)
		}
	}
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	recs, n, legacyLines := decodeIdemJournal(data)
	if !bytes.HasPrefix(data, idemFrameMagic[:]) || legacyLines != 0 || n != len(data) || len(recs) != len(want) {
		t.Fatalf("journal after restore: %d records, %d legacy lines, %d of %d bytes; want %d binary frames",
			len(recs), legacyLines, n, len(data), len(want))
	}
	if d.mJournalRewrites.Value() != 1 {
		t.Fatalf("fastd.store.journal_rewrites = %d, want 1 (the format conversion)", d.mJournalRewrites.Value())
	}
}

// TestTornJournalTailIsRewritten: a crash mid-append leaves a short frame.
// The restore skips it, replays the records before it, and rewrites the
// journal, so appends after the restore are not stranded behind the tail.
func TestTornJournalTailIsRewritten(t *testing.T) {
	dir := t.TempDir()
	d, ts := newTestDaemon(t, daemonConfig{StateDir: dir})
	sr := createSession(t, ts.URL, testSessionRequest())
	vals := fromComplex([]complex128{1})
	for _, key := range []string{"a", "b"} {
		resp := idemProbe(t, ts.URL, sr.ID, key, vals)
		resp.Body.Close()
	}
	sh, s, err := d.resolve(sr.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !d.evictSession(sh, s) {
		t.Fatal("evict failed")
	}
	journal := filepath.Join(dir, sr.ID+".idem")
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	torn := appendIdemFrame(nil, idemRecord{Key: "c", Status: http.StatusOK, Body: []byte("{}")})
	if err := os.WriteFile(journal, append(data, torn[:len(torn)-3]...), 0o644); err != nil {
		t.Fatal(err)
	}

	resp := idemProbe(t, ts.URL, sr.ID, "b", vals) // restores
	resp.Body.Close()
	if resp.Header.Get("Idempotency-Replayed") != "true" {
		t.Fatal("record before the torn tail did not replay")
	}
	resp = idemProbe(t, ts.URL, sr.ID, "d", vals)
	resp.Body.Close()
	data, err = os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	recs, n, _ := decodeIdemJournal(data)
	if n != len(data) || len(recs) != 3 || recs[2].Key != "d" {
		t.Fatalf("journal after torn-tail restore and one append: %d records over %d of %d bytes, want a, b, d", len(recs), n, len(data))
	}
}

// FuzzIdemJournal: arbitrary bytes decode to a valid prefix of records —
// never a panic, and without legacy JSON lines exactly the frames of that
// prefix — and a record appended through the store loads back unchanged.
func FuzzIdemJournal(f *testing.F) {
	frames := appendIdemFrame(nil, idemRecord{Key: "k1", Status: 200, Body: []byte(`{"ciphertext":"AAAA"}`)})
	frames = appendIdemFrame(frames, idemRecord{Key: "", Status: 404, Body: nil})
	f.Add(frames, "key", uint16(200), []byte("body"))
	f.Add(frames[:len(frames)-2], "k", uint16(400), []byte{})
	f.Add([]byte(`{"key":"a","status":200,"body":"e30="}`+"\n"), "a", uint16(200), []byte("{}"))
	f.Add([]byte("FIJ\x01\xff\xff\xff\xff"), "", uint16(0), []byte(nil))

	st, err := openSessionStore(f.TempDir(), nil, nil, slog.New(slog.NewTextHandler(io.Discard, nil)))
	if err != nil {
		f.Fatal(err)
	}
	var seq atomic.Uint64
	f.Fuzz(func(t *testing.T, data []byte, key string, status uint16, body []byte) {
		recs, n, legacy := decodeIdemJournal(data)
		if n < 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		again, n2, _ := decodeIdemJournal(data[:n])
		if n2 != n || len(again) != len(recs) {
			t.Fatalf("decoding the consumed prefix gave %d records over %d bytes, want %d over %d", len(again), n2, len(recs), n)
		}
		if legacy == 0 {
			var enc []byte
			for _, rec := range recs {
				enc = appendIdemFrame(enc, rec)
			}
			if !bytes.Equal(enc, data[:n]) {
				t.Fatal("decoded records do not re-encode to the consumed prefix")
			}
		}

		// Appends only ever follow a clean binary journal: a restore rewrites
		// a legacy one first.
		prefix := data[:n]
		if legacy > 0 {
			prefix, recs = nil, nil
		}
		id := fmt.Sprintf("f%d", seq.Add(1))
		if err := os.WriteFile(st.idemPath(id), prefix, 0o644); err != nil {
			t.Fatal(err)
		}
		defer os.Remove(st.idemPath(id))
		rec := idemRecord{Key: key, Status: int(status), Body: body}
		if err := st.appendIdem(id, rec); err != nil {
			t.Fatal(err)
		}
		loaded, _ := st.loadIdem(id)
		if len(loaded) != len(recs)+1 {
			t.Fatalf("loaded %d records after one append to %d", len(loaded), len(recs))
		}
		got := loaded[len(loaded)-1]
		if got.Key != rec.Key || got.Status != rec.Status || !bytes.Equal(got.Body, rec.Body) {
			t.Fatalf("append→load: got %+v, want %+v", got, rec)
		}
	})
}
