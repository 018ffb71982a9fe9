package core

import (
	"fmt"
	"strings"
)

// Scheme identifies one of the six power allocation schemes evaluated in
// the paper (Section 6).
type Scheme int

// The evaluation's schemes, in the paper's legend order.
const (
	// Naive distributes power uniformly using TDP-based, application- and
	// variation-unaware parameters; enforced with RAPL power capping. The
	// evaluation baseline.
	Naive Scheme = iota
	// Pc is application-dependent but variation-unaware: the calibrated
	// model's *average* parameters applied uniformly; enforced with RAPL.
	Pc
	// VaPcOr is VaPc with oracle (perfect, all-module) calibration.
	VaPcOr
	// VaPc is the proposed variation-aware scheme enforced with RAPL power
	// capping.
	VaPc
	// VaFsOr is VaFs with oracle calibration.
	VaFsOr
	// VaFs is the proposed variation-aware scheme enforced with frequency
	// selection via cpufreq.
	VaFs
)

// AllSchemes lists the schemes in the paper's legend order.
func AllSchemes() []Scheme { return []Scheme{Naive, Pc, VaPcOr, VaPc, VaFsOr, VaFs} }

// SchemeByName resolves a scheme from its paper name, case-insensitively.
func SchemeByName(name string) (Scheme, error) {
	name = strings.TrimSpace(name)
	for _, sc := range AllSchemes() {
		if strings.EqualFold(sc.String(), name) {
			return sc, nil
		}
	}
	names := make([]string, 0, len(AllSchemes()))
	for _, sc := range AllSchemes() {
		names = append(names, sc.String())
	}
	return 0, fmt.Errorf("unknown scheme %q (want one of %s)", name, strings.Join(names, ", "))
}

// String returns the paper's name for the scheme.
func (s Scheme) String() string {
	switch s {
	case Naive:
		return "Naive"
	case Pc:
		return "Pc"
	case VaPc:
		return "VaPc"
	case VaPcOr:
		return "VaPcOr"
	case VaFs:
		return "VaFs"
	case VaFsOr:
		return "VaFsOr"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// UsesFS reports whether the scheme is enforced with frequency selection
// (cpufrequtils) rather than RAPL power capping.
func (s Scheme) UsesFS() bool { return s == VaFs || s == VaFsOr }

// measurement names the test runs a scheme's model rests on; schemes with
// the same measurement can share one (see ModelGroups).
type measurement int

const (
	measureUnknown     measurement = iota // not one of the paper's schemes
	measureNone                           // TDP constants, no test run
	measureOracle                         // every module at fmax and fmin
	measureCalibration                    // two runs on one module, through the PVT
)

func (s Scheme) measurement() measurement {
	switch s {
	case Naive:
		return measureNone
	case Pc, VaPcOr, VaFsOr:
		return measureOracle
	case VaPc, VaFs:
		return measureCalibration
	default:
		return measureUnknown
	}
}
