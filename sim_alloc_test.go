package fast

import "testing"

// TestSimulateAllocBudget bounds the heap allocations of one Simulate call
// (Aether planning, Hemera key traffic and the simulator loop). Before
// evaluation keys became packed integers and the per-op loops reused their
// buffers, ResNet-20 took 85,194 allocations per call and bootstrapping
// 2,111; the budgets leave headroom above the current counts (about 3,500
// and 150) without letting a per-op allocation creep back in.
func TestSimulateAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	for _, tc := range []struct {
		w      Workload
		budget float64
	}{
		{ResNet20Workload(), 14000},
		{BootstrapWorkload(), 500},
	} {
		var err error
		allocs := testing.AllocsPerRun(5, func() {
			_, err = Simulate(tc.w, FASTAccelerator(), PlanAether)
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.w.Name(), err)
		}
		if allocs > tc.budget {
			t.Errorf("%s: %.0f allocations per Simulate, budget %.0f", tc.w.Name(), allocs, tc.budget)
		}
	}
}
