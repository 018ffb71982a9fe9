package rapl

import (
	"testing"

	"varpower/internal/hw/module"
	"varpower/internal/units"
)

func TestSimulateControlConvergesUnderLimit(t *testing.T) {
	m := module.New(3, testArch(), 7)
	p := testProfile()
	for _, limit := range []units.Watts{80, 65, 50} {
		avgF, avgP, _, err := SimulateControl(m, p, limit, DefaultControlSim, 2)
		if err != nil {
			t.Fatal(err)
		}
		if avgP > limit {
			t.Fatalf("limit %v: delivered average power %v exceeds it", limit, avgP)
		}
		ideal, ok := m.Curve(p).Capped(limit)
		if !ok {
			t.Fatalf("limit %v infeasible", limit)
		}
		loss := 1 - float64(avgF)/float64(ideal.Freq)
		if loss < 0 || loss > 0.15 {
			t.Fatalf("limit %v: frequency shortfall %v outside (0, 0.15]", limit, loss)
		}
	}
}

func TestSimulateControlOscillates(t *testing.T) {
	// The closed loop hunts around the setpoint — a nonzero frequency
	// spread is precisely why FS outperforms PC.
	m := module.New(4, testArch(), 7)
	_, _, std, err := SimulateControl(m, testProfile(), 65, DefaultControlSim, 2)
	if err != nil {
		t.Fatal(err)
	}
	if std <= 0 {
		t.Fatal("controller shows no oscillation at all")
	}
	if std > 0.4 {
		t.Fatalf("controller oscillation %v GHz implausibly wide", std)
	}
}

func TestSimulateControlValidation(t *testing.T) {
	m := module.New(5, testArch(), 7)
	p := testProfile()
	if _, _, _, err := SimulateControl(m, p, 1, DefaultControlSim, 1); err == nil {
		t.Error("limit below idle floor accepted")
	}
	bad := DefaultControlSim
	bad.Window = 0
	if _, _, _, err := SimulateControl(m, p, 65, bad, 1); err == nil {
		t.Error("zero window accepted")
	}
	if _, _, _, err := SimulateControl(m, p, 65, DefaultControlSim, 0.0001); err == nil {
		t.Error("sub-window duration accepted")
	}
}

func TestFitControlModelMatchesDefault(t *testing.T) {
	// The fitted model must land in the neighbourhood of the hard-coded
	// DefaultControl constants (they were derived this way).
	arch := testArch()
	var mods []*module.Module
	for i := 0; i < 8; i++ {
		mods = append(mods, module.New(i, arch, 7))
	}
	fit, err := FitControlModel(mods, testProfile(), []units.Watts{80, 65, 55}, DefaultControlSim, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fit.Overhead < 0.002 || fit.Overhead > 0.06 {
		t.Errorf("fitted overhead %v far from DefaultControl's %v", fit.Overhead, DefaultControl.Overhead)
	}
	if fit.Jitter <= 0 || fit.Jitter > 0.05 {
		t.Errorf("fitted jitter %v far from DefaultControl's %v", fit.Jitter, DefaultControl.Jitter)
	}
}

func TestFitControlModelNoFeasiblePairs(t *testing.T) {
	arch := testArch()
	mods := []*module.Module{module.New(0, arch, 7)}
	// All caps below the throttle threshold: nothing to fit.
	if _, err := FitControlModel(mods, testProfile(), []units.Watts{30}, DefaultControlSim, 1); err == nil {
		t.Error("fit with no feasible pairs succeeded")
	}
}
