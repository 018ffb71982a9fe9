// Package units defines the physical quantities used throughout varpower:
// power (watts), CPU frequency (hertz), and energy (joules), plus helpers
// for formatting and parsing them.
//
// All quantities are float64 wrappers rather than integer ticks because the
// simulation works with continuous power curves; precision loss at the
// scales involved (milliwatts to megawatts, kilohertz to gigahertz) is
// negligible and the arithmetic stays readable.
package units

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Watts is electrical power in watts.
type Watts float64

// String formats the power with an auto-selected SI prefix.
func (w Watts) String() string {
	a := math.Abs(float64(w))
	switch {
	case a >= 1e6:
		return trimFloat(float64(w)/1e6) + " MW"
	case a >= 1e3:
		return trimFloat(float64(w)/1e3) + " kW"
	case a >= 1 || a == 0:
		return trimFloat(float64(w)) + " W"
	default:
		return trimFloat(float64(w)*1e3) + " mW"
	}
}

// KW returns the power in kilowatts.
func (w Watts) KW() float64 { return float64(w) / 1e3 }

// Hertz is CPU clock frequency in hertz.
type Hertz float64

// GHz returns the frequency in gigahertz.
func (h Hertz) GHz() float64 { return float64(h) / 1e9 }

// MHz returns the frequency in megahertz.
func (h Hertz) MHz() float64 { return float64(h) / 1e6 }

// String formats the frequency with an auto-selected SI prefix.
func (h Hertz) String() string {
	a := math.Abs(float64(h))
	switch {
	case a >= 1e9:
		return trimFloat(float64(h)/1e9) + " GHz"
	case a >= 1e6:
		return trimFloat(float64(h)/1e6) + " MHz"
	case a >= 1e3:
		return trimFloat(float64(h)/1e3) + " kHz"
	default:
		return trimFloat(float64(h)) + " Hz"
	}
}

// GHz constructs a frequency from a gigahertz value.
func GHz(v float64) Hertz { return Hertz(v * 1e9) }

// MHz constructs a frequency from a megahertz value.
func MHz(v float64) Hertz { return Hertz(v * 1e6) }

// Joules is energy in joules.
type Joules float64

// String formats the energy with an auto-selected SI prefix.
func (j Joules) String() string {
	a := math.Abs(float64(j))
	switch {
	case a >= 1e6:
		return trimFloat(float64(j)/1e6) + " MJ"
	case a >= 1e3:
		return trimFloat(float64(j)/1e3) + " kJ"
	default:
		return trimFloat(float64(j)) + " J"
	}
}

// Seconds is simulated wall-clock time. The simulator keeps its own virtual
// clock, so time.Duration (with its nanosecond integer resolution and
// ~292-year range) is replaced by a float64 second count.
type Seconds float64

// String formats the duration in seconds with millisecond precision.
func (s Seconds) String() string { return strconv.FormatFloat(float64(s), 'f', 3, 64) + " s" }

// Energy returns the energy accumulated by drawing power w for duration s.
func Energy(w Watts, s Seconds) Joules { return Joules(float64(w) * float64(s)) }

// AvgPower returns the average power given energy j over duration s.
// It returns 0 when s is 0 to avoid propagating NaNs into statistics.
func AvgPower(j Joules, s Seconds) Watts {
	if s == 0 {
		return 0
	}
	return Watts(float64(j) / float64(s))
}

// ParseWatts parses strings like "115", "115W", "115 W", "96kW", "1.2 MW".
func ParseWatts(s string) (Watts, error) {
	v, suffix, err := splitQuantity(s)
	if err != nil {
		return 0, fmt.Errorf("units: parse watts %q: %w", s, err)
	}
	switch strings.ToLower(suffix) {
	case "", "w":
		return Watts(v), nil
	case "mw":
		// "mW" is milliwatts, "MW" megawatts; disambiguate on original case.
		if strings.Contains(suffix, "M") {
			return Watts(v * 1e6), nil
		}
		return Watts(v * 1e-3), nil
	case "kw":
		return Watts(v * 1e3), nil
	default:
		return 0, fmt.Errorf("units: parse watts %q: unknown suffix %q", s, suffix)
	}
}

// splitQuantity separates "12.5kW" into (12.5, "kW").
func splitQuantity(s string) (float64, string, error) {
	s = strings.TrimSpace(s)
	i := len(s)
	for i > 0 {
		c := s[i-1]
		if (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-' {
			break
		}
		i--
	}
	num := strings.TrimSpace(s[:i])
	suffix := strings.TrimSpace(s[i:])
	if num == "" {
		return 0, "", fmt.Errorf("no numeric part")
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, "", err
	}
	return v, suffix, nil
}

// trimFloat renders v with up to three decimals, dropping trailing zeros.
func trimFloat(v float64) string {
	s := strconv.FormatFloat(v, 'f', 3, 64)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}

// Clamp returns v restricted to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Lerp linearly interpolates between a and b: a + t*(b-a).
func Lerp(a, b, t float64) float64 { return a + t*(b-a) }

// InvLerp returns the t for which Lerp(a, b, t) == v. It returns 0 when
// a == b so that degenerate ranges behave as "always at the low end".
func InvLerp(a, b, v float64) float64 {
	if a == b {
		return 0
	}
	return (v - a) / (b - a)
}
