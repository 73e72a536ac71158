// Package trace defines the FHE operation stream the performance stack
// consumes: the Aether planner analyses a Trace offline (paper Fig. 5),
// Hemera schedules its evaluation-key traffic online, and the cycle
// simulator executes it against an accelerator configuration.
//
// A Trace is deliberately a *cryptographic operation* trace, not a kernel
// trace: each op records the ciphertext level it executes at, the hoisting
// opportunity it exposes, and the evaluation key it needs. The translation
// into kernels (NTT/BConv/KeyMult counts) happens in the cost model, exactly
// as the paper's simulator "translates each application into a
// cryptographically structured operation trace ... partitioned into
// hardware-aligned kernels" (§6.1).
package trace

import (
	"fmt"
	"strconv"

	"github.com/fastfhe/fast/internal/costmodel"
)

// OpKind enumerates the FHE operations of the CKKS scheme (paper §2.1.2).
type OpKind int

const (
	// HMult is a ciphertext-ciphertext multiplication (needs the relin key).
	HMult OpKind = iota
	// HRot is a group of ciphertext rotations on one ciphertext. A group
	// with Hoist=h shares a single decomposition across its h rotations.
	HRot
	// PMult is a plaintext-ciphertext multiplication.
	PMult
	// PAdd is a plaintext-ciphertext addition.
	PAdd
	// HAdd is a ciphertext-ciphertext addition.
	HAdd
	// CMult is a scalar (constant) multiplication.
	CMult
	// Rescale divides by the top prime and drops a level.
	Rescale
	// ModRaise lifts an exhausted ciphertext back to the top of the chain
	// (the first bootstrapping step).
	ModRaise

	// numOpKinds is the sentinel bounding the enum; keep it last so the
	// exhaustiveness tests (and any table sized by op kind) stay in sync
	// when kinds are added.
	numOpKinds
)

func (k OpKind) String() string {
	switch k {
	case HMult:
		return "HMult"
	case HRot:
		return "HRot"
	case PMult:
		return "PMult"
	case PAdd:
		return "PAdd"
	case HAdd:
		return "HAdd"
	case CMult:
		return "CMult"
	case Rescale:
		return "Rescale"
	case ModRaise:
		return "ModRaise"
	default:
		return "OpKind(" + strconv.Itoa(int(k)) + ")"
	}
}

// NeedsKeySwitch reports whether the op runs a key-switching dataflow.
func (k OpKind) NeedsKeySwitch() bool { return k == HMult || k == HRot }

// Op is one operation of the stream.
type Op struct {
	Kind  OpKind
	Level int // ciphertext level ℓ at execution time

	// Hoist is the number of rotations sharing one decomposition (HRot
	// only; 1 everywhere else). An HRot op with Hoist=h stands for the
	// whole hoisted group.
	Hoist int

	// Rotations lists the rotation amounts of an HRot group (len == Hoist).
	Rotations []int

	// Phase labels the algorithmic stage (e.g. "CoeffToSlot") for
	// execution-time breakdowns (Fig. 10).
	Phase string

	// CtID identifies the ciphertext the op consumes, for hoisting and
	// reuse analysis.
	CtID int
}

// KeyKind is the kind of evaluation key a KeyID names.
type KeyKind uint8

const (
	// NoKey is the kind of the zero KeyID: the op needs no key.
	NoKey KeyKind = iota
	// RelinKey is the relinearisation key (shared by every HMult).
	RelinKey
	// RotKey is a rotation (Galois) key, one per rotation amount.
	RotKey
	// ConjKey is the conjugation key.
	ConjKey
)

// KeyID is an evaluation-key identity: the key-switching method, the key
// kind and (rotation keys only) the rotation amount, packed into one
// comparable integer so pools and catalogs index keys without formatting
// them. Bits 0-7 hold the kind, bits 8-15 the method and bits 32-63 the
// rotation as a two's-complement int32. The zero KeyID means "no key".
type KeyID uint64

// NewKeyID packs a key identity. The rotation is kept for rotation keys
// only; the other kinds have one key per method. NoKey yields the zero ID.
func NewKeyID(m costmodel.Method, kind KeyKind, rotation int) KeyID {
	if kind == NoKey {
		return 0
	}
	if kind != RotKey {
		rotation = 0
	}
	return KeyID(kind) | KeyID(uint8(m))<<8 | KeyID(uint32(int32(rotation)))<<32
}

// KeyID returns the evaluation key the op needs under the given
// key-switching method (the zero ID when no key is required). Rotation keys
// are per-rotation-amount; relinearisation keys are shared. Hemera uses
// these identities for pool residency and prefetch decisions.
func (o Op) KeyID(m costmodel.Method, rotation int) KeyID {
	switch o.Kind {
	case HMult:
		return NewKeyID(m, RelinKey, 0)
	case HRot:
		return NewKeyID(m, RotKey, rotation)
	default:
		return 0
	}
}

// HoistCount returns the effective hoist factor (>=1).
func (o Op) HoistCount() int {
	if o.Kind == HRot && o.Hoist > 1 {
		return o.Hoist
	}
	return 1
}

// Trace is a named operation stream.
type Trace struct {
	Name string
	Ops  []Op

	// Slots records the packing width the workload assumes (for T_mult,a/s
	// style metrics).
	Slots int
}

// Append adds an op, defaulting Hoist to 1.
func (t *Trace) Append(op Op) {
	if op.Hoist < 1 {
		op.Hoist = 1
	}
	t.Ops = append(t.Ops, op)
}

// KeySwitchCount returns the total number of key-switch dataflows in the
// trace (each rotation of a hoisted group counts once).
func (t *Trace) KeySwitchCount() int {
	n := 0
	for _, op := range t.Ops {
		if op.Kind.NeedsKeySwitch() {
			n += op.HoistCount()
		}
	}
	return n
}

// Phases returns the distinct phase labels in first-appearance order.
func (t *Trace) Phases() []string {
	var out []string
	seen := map[string]bool{}
	for _, op := range t.Ops {
		if op.Phase != "" && !seen[op.Phase] {
			seen[op.Phase] = true
			out = append(out, op.Phase)
		}
	}
	return out
}

// Validate checks structural invariants: levels non-negative, hoisted groups
// carry their rotation lists.
func (t *Trace) Validate() error {
	for i, op := range t.Ops {
		if op.Level < 0 {
			return fmt.Errorf("trace %q op %d (%v): negative level %d", t.Name, i, op.Kind, op.Level)
		}
		if op.Kind == HRot {
			if len(op.Rotations) != op.HoistCount() {
				return fmt.Errorf("trace %q op %d: %d rotations for hoist %d",
					t.Name, i, len(op.Rotations), op.HoistCount())
			}
		} else if op.Hoist > 1 {
			return fmt.Errorf("trace %q op %d (%v): hoisting only applies to HRot", t.Name, i, op.Kind)
		}
	}
	return nil
}
