package diagnose

import (
	"strings"
	"testing"

	"accmos/internal/types"
)

func TestFlagKindsFilterAndOrder(t *testing.T) {
	rules := []Kind{WrapOnOverflow, DivisionByZero, NaNOrInf}
	flags := types.OpResult{Overflow: true, DivByZero: true, DomainErr: true, NaNOrInf: true}
	got := FlagKinds(rules, flags)
	want := []Kind{WrapOnOverflow, DivisionByZero, NaNOrInf} // DomainErr filtered (not in rules)
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v (canonical order)", got, want)
		}
	}
	if len(FlagKinds(nil, flags)) != 0 {
		t.Error("no rules -> no findings")
	}
	if len(FlagKinds(rules, types.OpResult{})) != 0 {
		t.Error("no flags -> no findings")
	}
}

func TestFlagKindsOutOfRangeRouting(t *testing.T) {
	flags := types.OpResult{OutOfRange: true}
	got := FlagKinds([]Kind{IndexOutOfBounds}, flags)
	if len(got) != 1 || got[0] != IndexOutOfBounds {
		t.Errorf("got %v", got)
	}
	got = FlagKinds([]Kind{OutOfRange}, flags)
	if len(got) != 1 || got[0] != OutOfRange {
		t.Errorf("got %v", got)
	}
	// IndexOutOfBounds takes precedence when both are in the rule set.
	got = FlagKinds([]Kind{OutOfRange, IndexOutOfBounds}, flags)
	if len(got) != 1 || got[0] != IndexOutOfBounds {
		t.Errorf("got %v", got)
	}
}

func TestCustomCheckValidate(t *testing.T) {
	good := []CustomCheck{
		{Actor: "X", Name: "r", Kind: RangeCheck, Lo: 0, Hi: 1},
		{Actor: "X", Name: "d", Kind: DeltaCheck, MaxDelta: 5},
		{Actor: "X", Name: "c", Kind: CallbackCheck, Callback: func(int64, types.Value) (bool, string) { return false, "" }},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
	bad := []CustomCheck{
		{Name: "no-actor", Kind: RangeCheck},
		{Actor: "X", Name: "inv-range", Kind: RangeCheck, Lo: 2, Hi: 1},
		{Actor: "X", Name: "neg-delta", Kind: DeltaCheck, MaxDelta: -1},
		{Actor: "X", Name: "nil-cb", Kind: CallbackCheck},
		{Actor: "X", Name: "bad-kind", Kind: CustomKind(99)},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%s: expected error", c.Name)
		}
	}
}

func TestSinkAggregation(t *testing.T) {
	s := NewSink(2)
	for step := int64(0); step < 5; step++ {
		s.Report(Record{Step: step + 10, Actor: "M_X", Kind: WrapOnOverflow})
	}
	s.Report(Record{Step: 3, Actor: "M_Y", Kind: DivisionByZero})
	if s.Total != 6 {
		t.Errorf("total = %d", s.Total)
	}
	if len(s.Records) != 2 {
		t.Errorf("records capped at %d, got %d", 2, len(s.Records))
	}
	if s.Counts[Key("M_X", WrapOnOverflow)] != 5 {
		t.Errorf("counts = %v", s.Counts)
	}
	if s.FirstDetect[Key("M_X", WrapOnOverflow)] != 10 {
		t.Errorf("first detect = %v", s.FirstDetect)
	}
	if s.FirstDetect[Key("M_Y", DivisionByZero)] != 3 {
		t.Errorf("first detect = %v", s.FirstDetect)
	}
}

func TestRecordString(t *testing.T) {
	r := Record{Step: 7, Actor: "M_SUB_ADD2", Kind: WrapOnOverflow, Detail: "x"}
	s := r.String()
	if !strings.Contains(s, "WrapOnOverflow") || !strings.Contains(s, "M_SUB_ADD2") ||
		!strings.Contains(s, "step 7") || !strings.Contains(s, "(x)") {
		t.Errorf("Record.String() = %q", s)
	}
}
