package fast

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"
)

// codecTestContext is the fixed-seed session behind the pinned wire bytes:
// the snapshot tests' configuration (hybrid + KLSS keys, rotations and
// conjugation), so every key class is on the wire.
func codecTestContext(t testing.TB) *Context {
	t.Helper()
	ctx, err := NewContext(ContextConfig{
		LogN:        9,
		Levels:      3,
		LogScale:    36,
		Rotations:   []int{1, -1, 4},
		Conjugation: true,
		EnableKLSS:  true,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

var codecTestMeta = SessionMeta{ID: "s1", CreatedUnixNano: 12345, Restores: 3, FaultScenario: "none"}

// TestWireBytesPinned pins the SHA-256 of a fixed-seed session snapshot and
// of a fixed-seed ciphertext. The digests were recorded with the
// encoding/binary codec that the word codec and the streaming snapshot
// writer replaced: on-disk snapshots and ciphertexts on the HTTP wire must
// stay byte-identical across codec rewrites, or existing state directories
// and clients break.
func TestWireBytesPinned(t *testing.T) {
	ctx := codecTestContext(t)
	var snap bytes.Buffer
	if err := ctx.WriteSessionSnapshot(&snap, codecTestMeta); err != nil {
		t.Fatal(err)
	}
	vals := make([]complex128, ctx.Slots())
	for i := range vals {
		vals[i] = complex(float64(i%5)*0.25, -float64(i%3)*0.5)
	}
	ct, err := ctx.Encrypt(vals)
	if err != nil {
		t.Fatal(err)
	}
	var wire bytes.Buffer
	if err := ct.Serialize(&wire); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
		size int
		sum  string
	}{
		{"snapshot", snap.Bytes(), 1017236, "f246aea68f43d2449f8a26e82f3f28b183ce0838bf2c23dd9737f5435cc954ff"},
		{"ciphertext", wire.Bytes(), 32802, "7c7355f1de0a90d9a3ac3c500841e63b43033b74554475c340ab4a8f38ae8967"},
	} {
		sum := sha256.Sum256(tc.data)
		if len(tc.data) != tc.size || hex.EncodeToString(sum[:]) != tc.sum {
			t.Errorf("%s: %d bytes, sha256 %x; want %d bytes, sha256 %s", tc.name, len(tc.data), sum, tc.size, tc.sum)
		}
	}
	back, err := ctx.ReadCiphertext(bytes.NewReader(wire.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := back.Serialize(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), wire.Bytes()) {
		t.Fatal("ciphertext did not round-trip byte-identically")
	}
}

// allocatedBytes returns the heap bytes f allocates, averaged over runs.
func allocatedBytes(runs int, f func()) float64 {
	f() // warm pools
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestSessionSnapshotAllocBudget bounds the heap bytes of a snapshot write
// and a restore relative to the snapshot's size. With encoding/binary and a
// buffered key payload a write allocated 4.6x the snapshot and a restore
// 2.7x; streaming the payload and the word codec bring them to about 0.04x
// and 1.7x (the restored key material itself is 1x). A write that buffers
// the payload again, or a codec that copies a backing, breaks the budget.
func TestSessionSnapshotAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	ctx := codecTestContext(t)
	var snap bytes.Buffer
	if err := ctx.WriteSessionSnapshot(&snap, codecTestMeta); err != nil {
		t.Fatal(err)
	}
	size := float64(snap.Len())
	var sink bytes.Buffer
	sink.Grow(snap.Len())
	write := allocatedBytes(3, func() {
		sink.Reset()
		if err := ctx.WriteSessionSnapshot(&sink, codecTestMeta); err != nil {
			t.Fatal(err)
		}
	})
	restore := allocatedBytes(3, func() {
		s, err := DecodeSessionSnapshot(snap.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Restore(); err != nil {
			t.Fatal(err)
		}
	})
	if budget := 0.25 * size; write > budget {
		t.Errorf("snapshot write allocated %.0f bytes for a %.0f-byte snapshot, budget %.0f", write, size, budget)
	}
	if budget := 2.0 * size; restore > budget {
		t.Errorf("snapshot restore allocated %.0f bytes for a %.0f-byte snapshot, budget %.0f", restore, size, budget)
	}
}
