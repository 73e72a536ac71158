//go:build !race

package fast

// raceEnabled reports whether the race detector is active. Allocation
// budgets are skipped under -race: the race runtime adds allocations of its
// own, which would make the bounds meaningless.
const raceEnabled = false
