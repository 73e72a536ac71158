package trace

import (
	"strconv"
	"testing"

	"github.com/fastfhe/fast/internal/costmodel"
)

func TestOpKindStrings(t *testing.T) {
	kinds := []OpKind{HMult, HRot, PMult, PAdd, HAdd, CMult, Rescale, ModRaise}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("bad or duplicate name %q", s)
		}
		seen[s] = true
	}
	if OpKind(99).String() == "" {
		t.Error("unknown kind should print")
	}
}

func TestNeedsKeySwitch(t *testing.T) {
	if !HMult.NeedsKeySwitch() || !HRot.NeedsKeySwitch() {
		t.Error("HMult/HRot must need key-switching")
	}
	for _, k := range []OpKind{PMult, PAdd, HAdd, CMult, Rescale, ModRaise} {
		if k.NeedsKeySwitch() {
			t.Errorf("%v should not need key-switching", k)
		}
	}
}

// Key IDs must be distinct across both methods, every key kind and
// rotations -64..64 (negative and zero included), and never collide with
// the zero "no key" value.
func TestKeyID(t *testing.T) {
	seen := map[KeyID]string{}
	add := func(m costmodel.Method, kind KeyKind, rot int) {
		t.Helper()
		id := NewKeyID(m, kind, rot)
		desc := m.String() + "/" + strconv.Itoa(int(kind)) + "/" + strconv.Itoa(rot)
		if id == 0 {
			t.Fatalf("%s packs to the zero (no key) ID", desc)
		}
		if prev, dup := seen[id]; dup {
			t.Fatalf("%s and %s share ID %#x", desc, prev, uint64(id))
		}
		seen[id] = desc
	}
	for _, m := range []costmodel.Method{costmodel.Hybrid, costmodel.KLSS} {
		add(m, RelinKey, 0)
		add(m, ConjKey, 0)
		for r := -64; r <= 64; r++ {
			add(m, RotKey, r)
		}
	}

	// Relin and conj keys ignore the rotation argument.
	if NewKeyID(costmodel.KLSS, RelinKey, 5) != NewKeyID(costmodel.KLSS, RelinKey, 0) {
		t.Error("relin key must not depend on the rotation")
	}
	if NewKeyID(costmodel.Hybrid, NoKey, 5) != 0 {
		t.Error("NoKey must pack to the zero ID")
	}

	mult := Op{Kind: HMult, Level: 3}
	if got := mult.KeyID(costmodel.Hybrid, 0); got != NewKeyID(costmodel.Hybrid, RelinKey, 0) {
		t.Errorf("HMult key id %#x", uint64(got))
	}
	rot := Op{Kind: HRot, Level: 3, Rotations: []int{-5}}
	if got := rot.KeyID(costmodel.KLSS, -5); got != NewKeyID(costmodel.KLSS, RotKey, -5) {
		t.Errorf("HRot key id %#x", uint64(got))
	}
	if got := (Op{Kind: PMult}).KeyID(costmodel.Hybrid, 0); got != 0 {
		t.Errorf("PMult should have no key, got %#x", uint64(got))
	}
}

func TestHoistCount(t *testing.T) {
	if (Op{Kind: HRot, Hoist: 4, Rotations: []int{1, 2, 3, 4}}).HoistCount() != 4 {
		t.Error("hoisted group count wrong")
	}
	if (Op{Kind: HRot, Rotations: []int{1}}).HoistCount() != 1 {
		t.Error("default hoist should be 1")
	}
	if (Op{Kind: HMult, Hoist: 4}).HoistCount() != 1 {
		t.Error("non-HRot hoist must clamp to 1")
	}
}

func TestAppendDefaultsHoist(t *testing.T) {
	var tr Trace
	tr.Append(Op{Kind: PMult, Level: 2})
	if tr.Ops[0].Hoist != 1 {
		t.Error("Append should default Hoist to 1")
	}
}

func TestKeySwitchCount(t *testing.T) {
	tr := Trace{Name: "t"}
	tr.Append(Op{Kind: HMult, Level: 5})
	tr.Append(Op{Kind: HRot, Level: 5, Hoist: 4, Rotations: []int{1, 2, 3, 4}})
	tr.Append(Op{Kind: PMult, Level: 5})
	if got := tr.KeySwitchCount(); got != 5 {
		t.Errorf("KeySwitchCount = %d, want 5", got)
	}
}

func TestPhases(t *testing.T) {
	tr := Trace{}
	tr.Append(Op{Kind: PMult, Phase: "A"})
	tr.Append(Op{Kind: PMult, Phase: "B"})
	tr.Append(Op{Kind: PMult, Phase: "A"})
	tr.Append(Op{Kind: PMult})
	ph := tr.Phases()
	if len(ph) != 2 || ph[0] != "A" || ph[1] != "B" {
		t.Errorf("Phases = %v", ph)
	}
}

func TestValidate(t *testing.T) {
	good := Trace{Name: "g"}
	good.Append(Op{Kind: HRot, Level: 3, Hoist: 2, Rotations: []int{1, 2}})
	if err := good.Validate(); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}

	bad := Trace{Name: "b1"}
	bad.Append(Op{Kind: PMult, Level: -1})
	if bad.Validate() == nil {
		t.Error("negative level accepted")
	}

	bad2 := Trace{Name: "b2"}
	bad2.Append(Op{Kind: HRot, Level: 1, Hoist: 3, Rotations: []int{1}})
	if bad2.Validate() == nil {
		t.Error("rotation/hoist mismatch accepted")
	}

	bad3 := Trace{Name: "b3", Ops: []Op{{Kind: HMult, Level: 1, Hoist: 2}}}
	if bad3.Validate() == nil {
		t.Error("hoisted HMult accepted")
	}
}
