package hemera

import (
	"strings"
	"testing"

	"github.com/fastfhe/fast/internal/aether"
	"github.com/fastfhe/fast/internal/costmodel"
	"github.com/fastfhe/fast/internal/trace"
)

// rotKey is a hybrid rotation key: the tests use rotation amounts to name
// distinct keys.
func rotKey(r int) trace.KeyID { return trace.NewKeyID(costmodel.Hybrid, trace.RotKey, r) }

// Named test keys.
var (
	keyA, keyB, keyC, keyD, keyE = rotKey(1), rotKey(2), rotKey(3), rotKey(4), rotKey(5)
	keyBig, keyWarm              = rotKey(100), rotKey(101)
	keyK, keyK1, keyK2           = rotKey(200), rotKey(201), rotKey(202)
)

func TestPoolLRU(t *testing.T) {
	p := NewPool(100)
	if p.Request(keyA, 40) {
		t.Error("first request should miss")
	}
	if !p.Request(keyA, 40) {
		t.Error("second request should hit")
	}
	p.Request(keyB, 40)
	if p.Used() != 80 {
		t.Errorf("used = %d, want 80", p.Used())
	}
	// c (40) forces eviction of the LRU entry, which is a (b was touched
	// later... a was touched more recently than b? a was requested twice,
	// then b: LRU order is b oldest after a's second touch). Touch a to be
	// explicit.
	p.Request(keyA, 40)
	p.Request(keyC, 40)
	if p.Contains(keyB) {
		t.Error("b should have been evicted as LRU")
	}
	if !p.Contains(keyA) || !p.Contains(keyC) {
		t.Error("a and c should be resident")
	}
	if p.Used() != 80 {
		t.Errorf("used = %d, want 80 after eviction", p.Used())
	}
}

func TestPoolOversizedKeyStreams(t *testing.T) {
	p := NewPool(10)
	if p.Request(keyBig, 100) {
		t.Error("oversized key cannot hit")
	}
	if p.Used() != 0 {
		t.Error("oversized key must not be retained")
	}
	if p.Request(keyBig, 100) {
		t.Error("oversized key misses every time")
	}
}

func TestRecorder(t *testing.T) {
	r := NewRecorder()
	d := aether.Decision{Method: costmodel.KLSS, Hoist: 4}
	if r.Predicts(10, d) {
		t.Error("empty recorder cannot predict")
	}
	r.Record(10, d)
	if !r.Predicts(10, d) {
		t.Error("recorder should predict a repeated pattern")
	}
	if r.Predicts(10, aether.Decision{Method: costmodel.Hybrid, Hoist: 4}) {
		t.Error("different method must not match")
	}
	if r.Predicts(11, d) {
		t.Error("different level must not match")
	}
}

func TestManagerTransfers(t *testing.T) {
	m := NewManager(1<<20, nil) // 1 MB pool, no config file
	d := aether.Decision{Method: costmodel.Hybrid, Hoist: 1}

	tr := m.RequestKey(trace.NewKeyID(costmodel.Hybrid, trace.RotKey, 1), 512<<10, 5, d)
	if tr.Hit || tr.Bytes != 512<<10 {
		t.Fatalf("first request: %+v", tr)
	}
	if tr.Prefetched {
		t.Error("no config file and no history: not prefetched")
	}
	wantBatches := int((512<<10 + BatchBytes - 1) / BatchBytes)
	if tr.Batches != wantBatches {
		t.Errorf("batches = %d, want %d", tr.Batches, wantBatches)
	}

	tr = m.RequestKey(trace.NewKeyID(costmodel.Hybrid, trace.RotKey, 1), 512<<10, 5, d)
	if !tr.Hit || tr.Bytes != 0 || tr.Batches != 0 {
		t.Fatalf("second request should hit: %+v", tr)
	}

	// Same level pattern on a different key: history predicts it.
	tr = m.RequestKey(trace.NewKeyID(costmodel.Hybrid, trace.RotKey, 2), 512<<10, 5, d)
	if !tr.Prefetched {
		t.Error("history recorder should predict the repeated level pattern")
	}
}

func TestManagerWithConfigFilePrefetches(t *testing.T) {
	cfg := &aether.ConfigFile{Workload: "w"}
	m := NewManager(1<<20, cfg)
	tr := m.RequestKey(trace.NewKeyID(costmodel.Hybrid, trace.RelinKey, 0), 100, 3, aether.Decision{})
	if !tr.Prefetched {
		t.Error("config-file-driven requests are prefetched")
	}
}

func TestManagerEmptyKey(t *testing.T) {
	m := NewManager(100, nil)
	if tr := m.RequestKey(trace.KeyID(0), 10, 0, aether.Decision{}); tr.Bytes != 0 || tr.Hit {
		t.Error("empty key id should be a no-op")
	}
}

func TestAddressesStable(t *testing.T) {
	m := NewManager(1<<20, nil)
	a1 := m.Address(keyK1, 100)
	a2 := m.Address(keyK2, 100)
	if a1 == a2 {
		t.Error("distinct keys need distinct addresses")
	}
	if m.Address(keyK1, 100) != a1 {
		t.Error("address must be stable")
	}
}

func TestManagerString(t *testing.T) {
	m := NewManager(1<<20, nil)
	m.RequestKey(keyK, 100, 0, aether.Decision{})
	s := m.String()
	if !strings.Contains(s, "hemera") {
		t.Errorf("String() = %q", s)
	}
	if m.PoolUsed() != 100 {
		t.Errorf("PoolUsed = %d", m.PoolUsed())
	}
}

func TestManagerDecisionLookup(t *testing.T) {
	cfg := &aether.ConfigFile{Decisions: []aether.Decision{{OpIndex: 2, Method: costmodel.KLSS, Hoist: 8}}}
	m := NewManager(1, cfg)
	if d := m.Decision(2); d.Method != costmodel.KLSS || d.Hoist != 8 {
		t.Error("decision lookup failed")
	}
	if d := m.Decision(0); d.Method != costmodel.Hybrid {
		t.Error("default decision should be hybrid")
	}
}
