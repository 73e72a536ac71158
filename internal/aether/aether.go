// Package aether implements the offline half of the paper's dual-method
// management framework (§4.1.1): it receives the FHE operation flow of an
// application, builds the Methods Candidate Table (MCT) — per-ciphertext
// records of cost, delay, key size and key-transfer time for both
// key-switching methods under every feasible hoisting configuration — runs
// the three-step selection (capacity filter, transfer-hiding filter, minimal
// delay with minimal key size as tie-break), and emits the compact Aether
// configuration file the online Hemera manager consumes.
package aether

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"github.com/fastfhe/fast/internal/arch"
	"github.com/fastfhe/fast/internal/costmodel"
	"github.com/fastfhe/fast/internal/trace"
)

// Decision is the planner's verdict for one key-switching operation.
type Decision struct {
	OpIndex int              `json:"op"`
	Level   int              `json:"level"`
	Method  costmodel.Method `json:"method"`
	Hoist   int              `json:"hoist"`
}

// Fallback returns the lower-evk-footprint decision the runtime degrades to
// under sustained prefetch misses or pool thrash: the non-hoisted hybrid
// configuration, whose resident key set is the smallest of any candidate
// (hybrid keys are ~3.7x smaller than KLSS keys, §3.1, and hoisting h
// rotations needs h keys resident at once).
func Fallback(opIndex, level int) Decision {
	return Decision{OpIndex: opIndex, Level: level, Method: costmodel.Hybrid, Hoist: 1}
}

// ConfigFile is the Aether configuration file: the per-operation method and
// hoisting selections, in op order. The paper measures it at about 1 KB; it
// serialises to compact JSON.
//
// Decisions must be in strictly increasing OpIndex order: Analyze emits them
// that way and Load rejects files that are not. Lookups only read the file,
// so one plan can be shared by concurrent simulations.
type ConfigFile struct {
	Workload  string     `json:"workload"`
	Decisions []Decision `json:"decisions"`
}

// defaultDecision is the non-hoisted hybrid verdict the hardware always
// supports, used for ops the file does not mention.
func defaultDecision(op int) Decision {
	return Decision{OpIndex: op, Method: costmodel.Hybrid, Hoist: 1}
}

// DecisionFor returns the decision for an op index, defaulting to
// non-hoisted hybrid (the safe fallback the hardware always supports).
func (c *ConfigFile) DecisionFor(op int) Decision {
	if c == nil {
		return defaultDecision(op)
	}
	i := sort.Search(len(c.Decisions), func(i int) bool { return c.Decisions[i].OpIndex >= op })
	if i < len(c.Decisions) && c.Decisions[i].OpIndex == op {
		return c.Decisions[i]
	}
	return defaultDecision(op)
}

// Cursor walks a configuration file's decisions in op order, answering
// DecisionFor in amortised constant time for callers that visit ops in
// increasing index order.
type Cursor struct {
	ds   []Decision
	next int
}

// Cursor returns a cursor positioned before the first op. A nil file yields
// a cursor that answers with the default decision.
func (c *ConfigFile) Cursor() Cursor {
	if c == nil {
		return Cursor{}
	}
	return Cursor{ds: c.Decisions}
}

// DecisionFor returns the same decision as ConfigFile.DecisionFor. op must
// not decrease from one call to the next.
func (cu *Cursor) DecisionFor(op int) Decision {
	for cu.next < len(cu.ds) && cu.ds[cu.next].OpIndex < op {
		cu.next++
	}
	if cu.next < len(cu.ds) && cu.ds[cu.next].OpIndex == op {
		return cu.ds[cu.next]
	}
	return defaultDecision(op)
}

// Save writes the configuration file as JSON.
func (c *ConfigFile) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(c)
}

// Load reads a configuration file. It rejects files whose decisions are not
// in strictly increasing op order.
func Load(r io.Reader) (*ConfigFile, error) {
	var c ConfigFile
	if err := json.NewDecoder(r).Decode(&c); err != nil {
		return nil, fmt.Errorf("aether: decoding config: %w", err)
	}
	for i := 1; i < len(c.Decisions); i++ {
		if prev, cur := c.Decisions[i-1].OpIndex, c.Decisions[i].OpIndex; cur <= prev {
			return nil, fmt.Errorf("aether: config decision %d is for op %d, after op %d: decisions must be in increasing op order", i, cur, prev)
		}
	}
	return &c, nil
}

// MCTEntry is one row of the Methods Candidate Table (paper Fig. 5(a)):
// index [0] is the hybrid method, [1] KLSS.
type MCTEntry struct {
	OpIndex int
	CtID    int
	Level   int
	Hoist   int // hoisting configuration this row evaluates
	Times   int // times the ciphertext executes under this configuration

	Cost         [2]float64 // modular operations
	Delay        [2]float64 // compute cycles on the target accelerator
	KeySize      [2]int64   // evaluation-key bytes
	TransferTime [2]float64 // key transfer cycles at the config's bandwidth
}

// Analyzer is the offline preprocessing tool. It is immutable after
// NewAnalyzer and safe for concurrent use.
type Analyzer struct {
	params costmodel.Params
	cfg    arch.Config

	// Per-configuration constants, hoisted out of the per-op loops.
	mulsPerCycle  [2]float64 // equivalent muls/cycle, indexed by method
	bytesPerCycle float64
	reservedBytes int64
}

// NewAnalyzer builds an analyzer for a parameter set and target accelerator.
func NewAnalyzer(params costmodel.Params, cfg arch.Config) (*Analyzer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	a := &Analyzer{
		params:        params,
		cfg:           cfg,
		bytesPerCycle: cfg.BytesPerCycle(),
		reservedBytes: int64(cfg.ReservedEvkMB * (1 << 20)),
	}
	for _, m := range methods {
		a.mulsPerCycle[m] = cfg.EquivMuls36PerCycle(kernelBits(m))
	}
	return a, nil
}

// methods lists both key-switching methods, indexed by their value (the MCT
// column order).
var methods = [2]costmodel.Method{costmodel.Hybrid, costmodel.KLSS}

// kernelBits returns the native width of a method's kernels.
func kernelBits(m costmodel.Method) int {
	if m == costmodel.KLSS {
		return 60
	}
	return 36
}

// delayCycles estimates the compute cycles of a breakdown on the target.
func (a *Analyzer) delayCycles(m costmodel.Method, bd costmodel.Breakdown) float64 {
	return bd.Total() / a.mulsPerCycle[m]
}

// hoistCandidates appends to hs the hoisting configurations for a group of
// maxH rotations: every power-of-two split up to the full group when
// hoisting is enabled, otherwise only the non-hoisted configuration.
func (a *Analyzer) hoistCandidates(hs []int, maxH int) []int {
	if !a.cfg.EnableHoisting || maxH <= 1 {
		return append(hs, 1)
	}
	for h := 1; h < maxH; h *= 2 {
		hs = append(hs, h)
	}
	return append(hs, maxH)
}

// appendRows appends the MCT rows of one key-switching op, one per hoisting
// candidate in hs.
func (a *Analyzer) appendRows(rows []MCTEntry, hs []int, idx int, op *trace.Op) []MCTEntry {
	for _, h := range hs {
		groups := (op.HoistCount() + h - 1) / h // groups of h rotations
		e := MCTEntry{OpIndex: idx, CtID: op.CtID, Level: op.Level, Hoist: h, Times: groups}
		for mi, m := range methods {
			bd := a.params.KeySwitch(m, op.Level, h).Scale(float64(groups))
			e.Cost[mi] = bd.Total()
			e.Delay[mi] = a.delayCycles(m, bd)
			// A hoisted group needs h distinct rotation keys resident.
			e.KeySize[mi] = int64(h) * a.params.EvkBytes(m, op.Level)
			e.TransferTime[mi] = float64(e.KeySize[mi]) / a.bytesPerCycle
		}
		rows = append(rows, e)
	}
	return rows
}

// appendOpKeys appends the evaluation keys a key-switching op needs under
// method m: the relinearisation key of an HMult, or one rotation key per
// rotation of an HRot group.
func appendOpKeys(ids []trace.KeyID, op *trace.Op, m costmodel.Method) []trace.KeyID {
	if op.Kind == trace.HMult {
		return append(ids, op.KeyID(m, 0))
	}
	for _, r := range op.Rotations {
		ids = append(ids, op.KeyID(m, r))
	}
	return ids
}

// keyState tracks one evaluation key across the analysis: how many times
// the trace uses it, and whether an earlier decision already scheduled its
// transfer.
type keyState struct {
	uses int
	seen bool
}

// cand is one (method, hoisting) configuration of a key-switching op in the
// three-step selection.
type cand struct {
	method costmodel.Method
	hoist  int
	delay  float64
	size   int64
	trans  float64
}

// Analyze runs the full workflow on a trace: locate HMult/HRot ops, evaluate
// every candidate configuration, apply the three selection steps and produce
// the configuration file.
func (a *Analyzer) Analyze(tr *trace.Trace) (*ConfigFile, error) {
	plan, _, err := a.analyze(tr, false)
	return plan, err
}

// AnalyzeMCT is Analyze that also returns the Methods Candidate Table for
// inspection.
func (a *Analyzer) AnalyzeMCT(tr *trace.Trace) (*ConfigFile, []MCTEntry, error) {
	return a.analyze(tr, true)
}

// analyze is the one selection path behind Analyze and AnalyzeMCT; the MCT
// is only accumulated when keepMCT is set.
func (a *Analyzer) analyze(tr *trace.Trace, keepMCT bool) (*ConfigFile, []MCTEntry, error) {
	if err := tr.Validate(); err != nil {
		return nil, nil, err
	}
	var mct []MCTEntry

	enabled := methods[:1]
	if a.cfg.EnableKLSS {
		enabled = methods[:]
	}
	prevExec := 0.0 // execution cycles of the preceding key-switch
	// Keys already scheduled for transfer earlier in the trace: thanks to
	// the minimum-key-switching storage scheme (§6.1), a key moves from HBM
	// once and later uses hit the Hemera pool, so only first uses count
	// against the transfer-hiding filter.
	keys := map[trace.KeyID]keyState{}
	var ids []trace.KeyID
	ksOps := 0
	for i := range tr.Ops {
		op := &tr.Ops[i]
		if !op.Kind.NeedsKeySwitch() {
			continue
		}
		ksOps++
		for _, m := range methods {
			ids = appendOpKeys(ids[:0], op, m)
			for _, id := range ids {
				k := keys[id]
				k.uses++
				keys[id] = k
			}
		}
	}
	cfgFile := &ConfigFile{Workload: tr.Name, Decisions: make([]Decision, 0, ksOps)}

	// Scratch buffers reused across ops.
	var (
		hoists        []int
		rows          []MCTEntry
		cands, hidden []cand
	)
	for idx := range tr.Ops {
		op := &tr.Ops[idx]
		if !op.Kind.NeedsKeySwitch() {
			continue
		}
		hoists = a.hoistCandidates(hoists[:0], op.HoistCount())
		rows = a.appendRows(rows[:0], hoists, idx, op)
		if keepMCT {
			mct = append(mct, rows...)
		}

		// Transfer cycles of each method's keys not yet scheduled; the same
		// for every hoisting row.
		var trans [2]float64
		for _, m := range enabled {
			ids = appendOpKeys(ids[:0], op, m)
			for _, id := range ids {
				k := keys[id]
				if k.seen {
					continue
				}
				// EKG halves the moved bytes (only part b travels); the
				// first transfer amortises over every future use of the
				// key, which the offline analysis can count.
				uses := float64(k.uses)
				if uses < 1 {
					uses = 1
				}
				trans[m] += float64(a.params.EvkBytes(m, op.Level)) / 2 / a.bytesPerCycle / uses
			}
		}
		cands = cands[:0]
		for _, row := range rows {
			for _, m := range enabled {
				cands = append(cands, cand{m, row.Hoist, row.Delay[m], row.KeySize[m], trans[m]})
			}
		}

		// STEP-1: drop configurations whose key set exceeds the reserved
		// on-chip key storage.
		filtered := cands[:0]
		for _, c := range cands {
			if c.size <= a.reservedBytes {
				filtered = append(filtered, c)
			}
		}
		if len(filtered) == 0 {
			// Nothing fits: fall back to the smallest-key configuration.
			best := cands[0]
			for _, c := range cands[1:] {
				if c.size < best.size {
					best = c
				}
			}
			filtered = append(filtered, best)
		}

		// STEP-2: prefer configurations whose key transfer hides behind the
		// preceding key-switch execution (the paper's transfer-latency
		// filter); keep everything if none qualifies.
		hidden = hidden[:0]
		for _, c := range filtered {
			if c.trans <= prevExec || prevExec == 0 {
				hidden = append(hidden, c)
			}
		}
		if len(hidden) > 0 {
			filtered = hidden
		}

		// STEP-3: minimal effective execution time — compute overlapped with
		// whatever key traffic double-buffering can hide — breaking ties
		// (within 5%) towards the smaller key set.
		eff := func(c cand) float64 {
			if c.trans > c.delay {
				return c.trans
			}
			return c.delay
		}
		best := filtered[0]
		for _, c := range filtered[1:] {
			switch {
			case eff(c) < eff(best)*0.95:
				best = c
			case eff(c) < eff(best)*1.05 && c.size < best.size:
				best = c
			}
		}
		cfgFile.Decisions = append(cfgFile.Decisions, Decision{
			OpIndex: idx, Level: op.Level, Method: best.method, Hoist: best.hoist,
		})
		ids = appendOpKeys(ids[:0], op, best.method)
		for _, id := range ids {
			k := keys[id]
			k.seen = true
			keys[id] = k
		}
		prevExec = best.delay
	}
	return cfgFile, mct, nil
}
