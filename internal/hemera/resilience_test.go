package hemera

import (
	"testing"

	"github.com/fastfhe/fast/internal/aether"
	"github.com/fastfhe/fast/internal/costmodel"
	"github.com/fastfhe/fast/internal/fault"
	"github.com/fastfhe/fast/internal/obs"
	"github.com/fastfhe/fast/internal/trace"
)

// ---- Pool eviction ordering under capacity pressure (degradation path
// dependency: Flush and LRU order decide which keys thrash first). ----

func TestPoolEvictionOrderUnderPressure(t *testing.T) {
	p := NewPool(100)
	p.Request(keyA, 30)
	p.Request(keyB, 30)
	p.Request(keyC, 30) // order MRU->LRU: c b a
	p.Request(keyA, 30) // touch a: a c b
	if p.Len() != 3 || p.Used() != 90 {
		t.Fatalf("resident %d keys / %d bytes, want 3/90", p.Len(), p.Used())
	}
	// A 40-byte key evicts exactly the LRU key b (freeing 30 is enough);
	// c survives because eviction stops as soon as the key fits.
	p.Request(keyD, 40)
	if p.Contains(keyB) {
		t.Error("b (LRU) should have been evicted first")
	}
	if !p.Contains(keyA) || !p.Contains(keyC) || !p.Contains(keyD) {
		t.Error("a, c and d should be resident")
	}
	if p.Used() != 100 {
		t.Errorf("used = %d, want 100", p.Used())
	}
	// A further 40-byte key at full occupancy needs two evictions, strictly
	// from the LRU end (order MRU->LRU is now d a c): c goes, then a.
	p.Request(keyE, 40)
	if p.Contains(keyC) || p.Contains(keyA) {
		t.Error("c and a should have been evicted in LRU order")
	}
	if !p.Contains(keyD) || !p.Contains(keyE) {
		t.Error("d (recent) and e (incoming) should be resident")
	}
	if p.Used() != 80 {
		t.Errorf("used = %d, want 80", p.Used())
	}
}

func TestPoolFlush(t *testing.T) {
	p := NewPool(100)
	p.Request(keyA, 25)
	p.Request(keyB, 25)
	p.Request(keyC, 25)
	p.Request(keyD, 25)
	// Flush to half capacity: the two LRU keys (a, b) go.
	if ev := p.Flush(0.5); ev != 2 {
		t.Fatalf("evicted %d keys, want 2", ev)
	}
	if p.Contains(keyA) || p.Contains(keyB) || !p.Contains(keyC) || !p.Contains(keyD) {
		t.Error("Flush must evict from the LRU end")
	}
	if p.Used() != 50 {
		t.Errorf("used = %d, want 50", p.Used())
	}
	// Out-of-range surviving fraction flushes everything.
	if ev := p.Flush(0); ev != 2 || p.Used() != 0 || p.Len() != 0 {
		t.Errorf("full flush: evicted %d, used %d, len %d", ev, p.Used(), p.Len())
	}
	// Flushing an empty pool is a no-op.
	if ev := p.Flush(0.5); ev != 0 {
		t.Errorf("empty flush evicted %d", ev)
	}
}

// ---- Recorder predict/record edge cases. ----

func TestRecorderLevelReuseAndDecisionFlip(t *testing.T) {
	r := NewRecorder()
	hybrid := aether.Decision{Method: costmodel.Hybrid, Hoist: 1}
	klss4 := aether.Decision{Method: costmodel.KLSS, Hoist: 4}

	// Level reuse: re-recording the same level overwrites, not accumulates.
	r.Record(3, hybrid)
	r.Record(3, klss4)
	if r.Predicts(3, hybrid) {
		t.Error("overwritten pattern must not predict")
	}
	if !r.Predicts(3, klss4) {
		t.Error("latest pattern must predict")
	}

	// Decision flip: same method, different hoist is a different pattern.
	klss8 := aether.Decision{Method: costmodel.KLSS, Hoist: 8}
	if r.Predicts(3, klss8) {
		t.Error("hoist flip must break the prediction")
	}
	r.Record(3, klss8)
	if !r.Predicts(3, klss8) || r.Predicts(3, klss4) {
		t.Error("recorder must track the flipped decision")
	}

	// Levels are independent.
	if r.Predicts(4, klss8) {
		t.Error("level 4 was never recorded")
	}
}

// ---- Resilient transfer path. ----

func reqDecision() aether.Decision {
	return aether.Decision{Method: costmodel.Hybrid, Hoist: 1}
}

func TestFaultTransferRetryAccounting(t *testing.T) {
	m := NewManager(1<<20, nil)
	m.SetInjector(fault.NewInjector(fault.Plan{Seed: 1, TransferFailure: 1}))
	const size = 1 << 16
	tr := m.RequestKey(keyK, size, 0, reqDecision())
	if tr.Hit {
		t.Fatal("first request cannot hit")
	}
	// Probability-1 failures: attempts 1..3 fail with backoff, the final
	// escalated attempt completes.
	if tr.Retries != maxTransferAttempts-1 {
		t.Errorf("retries = %d, want %d", tr.Retries, maxTransferAttempts-1)
	}
	if want := int64(maxTransferAttempts-1) * size / 2; tr.WastedBytes != want {
		t.Errorf("wasted = %d, want %d", tr.WastedBytes, want)
	}
	// Backoff doubles per retry: size/8 + size/4 + size/2.
	if want := int64(size>>backoffShift) * 7; tr.BackoffBytes != want {
		t.Errorf("backoff = %d, want %d", tr.BackoffBytes, want)
	}
	if tr.Bytes != size {
		t.Errorf("useful bytes = %d, want %d", tr.Bytes, size)
	}
}

func TestFaultTransferCorruptionRefetchesWithoutBackoff(t *testing.T) {
	m := NewManager(1<<20, nil)
	m.SetInjector(fault.NewInjector(fault.Plan{Seed: 1, Corruption: 1}))
	const size = 1 << 16
	tr := m.RequestKey(keyK, size, 0, reqDecision())
	if tr.Refetches != maxTransferAttempts-1 {
		t.Errorf("refetches = %d, want %d", tr.Refetches, maxTransferAttempts-1)
	}
	if want := int64(maxTransferAttempts-1) * size; tr.WastedBytes != want {
		t.Errorf("wasted = %d, want %d", tr.WastedBytes, want)
	}
	if tr.BackoffBytes != 0 {
		t.Errorf("refetches back off: %d bytes", tr.BackoffBytes)
	}
}

func TestFaultTransferTimeouts(t *testing.T) {
	m := NewManager(1<<20, nil)
	// SpikeFactor 10 > timeoutFactor 4: every spiked attempt times out.
	m.SetInjector(fault.NewInjector(fault.Plan{Seed: 1, LatencySpike: 1, SpikeFactor: 10}))
	const size = 1 << 16
	tr := m.RequestKey(keyK, size, 0, reqDecision())
	if tr.Timeouts != maxTransferAttempts-1 {
		t.Errorf("timeouts = %d, want %d", tr.Timeouts, maxTransferAttempts-1)
	}
	if want := int64(maxTransferAttempts-1) * int64(timeoutFactor*size); tr.WastedBytes != want {
		t.Errorf("wasted = %d, want %d", tr.WastedBytes, want)
	}
	if tr.BackoffBytes == 0 {
		t.Error("timed-out attempts must back off")
	}

	// A mild spike (factor <= timeoutFactor) completes slowly: no timeout,
	// (factor-1) x size extra channel occupancy.
	m2 := NewManager(1<<20, nil)
	m2.SetInjector(fault.NewInjector(fault.Plan{Seed: 1, LatencySpike: 1, SpikeFactor: 3}))
	tr2 := m2.RequestKey(keyK, size, 0, reqDecision())
	if tr2.Timeouts != 0 || tr2.Retries != 0 {
		t.Errorf("mild spike must complete: %+v", tr2)
	}
	if want := int64(2 * size); tr2.WastedBytes != want {
		t.Errorf("mild spike wasted %d, want %d", tr2.WastedBytes, want)
	}
}

func TestPoolPressureFlushesAndDegrades(t *testing.T) {
	m := NewManager(1<<20, nil)
	m.SetInjector(fault.NewInjector(fault.Plan{Seed: 2, PoolPressure: 1}))
	d := aether.Decision{Method: costmodel.KLSS, Hoist: 4}
	// Every request suffers a pressure flush; after the second event inside
	// the window the manager reports thrash and degrades KLSS/hoisted
	// decisions to non-hoisted hybrid.
	m.RequestKey(keyA, 1000, 0, d)
	if m.Degraded() {
		t.Fatal("one pressure event is not yet a burst")
	}
	m.RequestKey(keyB, 1000, 0, d)
	if !m.Degraded() {
		t.Fatal("two pressure events inside the window must degrade")
	}
	got, changed := m.MaybeDegrade(d)
	if !changed || got.Method != costmodel.Hybrid || got.Hoist != 1 {
		t.Errorf("MaybeDegrade = %+v (changed=%v), want non-hoisted hybrid", got, changed)
	}
	// The fallback decision itself is never "changed" again.
	if _, changed := m.MaybeDegrade(got); changed {
		t.Error("fallback decision must be stable under MaybeDegrade")
	}
}

func TestMissStreakDegradesAndRecovers(t *testing.T) {
	m := NewManager(1<<20, nil)
	m.DisablePrefetch = true                                                  // force unpredicted misses
	m.SetInjector(fault.NewInjector(fault.Plan{Seed: 3, Corruption: 0.0001})) // enabled, but ~never fires
	d := aether.Decision{Method: costmodel.KLSS, Hoist: 2}
	for i := 0; i < degradeMissStreak; i++ {
		if m.Degraded() {
			t.Fatalf("degraded after only %d misses", i)
		}
		m.RequestKey(keyName(i), 100, 0, d)
	}
	if !m.Degraded() {
		t.Fatal("miss streak must degrade")
	}
	// A pool hit resets the streak.
	m.RequestKey(keyName(0), 100, 0, d)
	if m.Degraded() {
		t.Error("a hit must clear the miss streak")
	}
}

func TestNoDegradationWithoutInjector(t *testing.T) {
	m := NewManager(1<<20, nil)
	m.DisablePrefetch = true
	d := aether.Decision{Method: costmodel.KLSS, Hoist: 2}
	for i := 0; i < 3*degradeMissStreak; i++ {
		m.RequestKey(keyName(i), 100, 0, d)
	}
	if m.Degraded() {
		t.Error("fault-free managers never degrade (behavior must match the seed)")
	}
	if _, changed := m.MaybeDegrade(d); changed {
		t.Error("fault-free MaybeDegrade must be the identity")
	}
}

func TestResilienceMetrics(t *testing.T) {
	o := obs.New()
	m := NewManager(1<<20, nil)
	m.SetObserver(o)
	m.SetInjector(fault.NewInjector(fault.Plan{Seed: 4, TransferFailure: 1}))
	m.RequestKey(keyK, 1<<12, 0, reqDecision())
	reg := o.Reg()
	if reg.Counter("hemera.retries").Value() != uint64(maxTransferAttempts-1) {
		t.Errorf("hemera.retries = %d", reg.Counter("hemera.retries").Value())
	}
	if reg.Counter("hemera.wasted_bytes").Value() == 0 {
		t.Error("hemera.wasted_bytes did not accumulate")
	}
	if reg.Counter("fault.injected").Value() == 0 {
		t.Error("fault.injected did not accumulate (injector must inherit the manager's observer)")
	}
	// Detaching zeroes the instrument set without breaking requests.
	m.SetObserver(nil)
	m.RequestKey(keyK2, 1<<12, 0, reqDecision())
}

func keyName(i int) trace.KeyID {
	return rotKey(i % 26)
}

// ---- Zero-cost disabled path. ----

// A fault-free manager (nil injector) must not pay for the resilience
// machinery: the request hot path adds no allocations, mirroring the obs
// nil-safe pattern where the disabled state is a single pointer check.
func TestNilInjectorRequestKeyZeroAllocs(t *testing.T) {
	m := NewManager(1<<20, nil)
	m.DisablePrefetch = true
	d := reqDecision()
	m.RequestKey(keyWarm, 1<<10, 0, d) // populate the pool
	allocs := testing.AllocsPerRun(100, func() {
		m.RequestKey(keyWarm, 1<<10, 0, d) // pure hit path
	})
	if allocs != 0 {
		t.Errorf("nil-injector hit path allocates %.0f objects per request, want 0", allocs)
	}
	if m.Injector() != nil {
		t.Fatal("manager without SetInjector must hold a nil injector")
	}
	// And MaybeDegrade must be the identity at zero cost.
	allocs = testing.AllocsPerRun(100, func() {
		if _, changed := m.MaybeDegrade(d); changed {
			t.Fatal("fault-free MaybeDegrade changed a decision")
		}
	})
	if allocs != 0 {
		t.Errorf("nil-injector MaybeDegrade allocates %.0f objects, want 0", allocs)
	}
}
