package units

import (
	"math"
	"testing"
)

// FuzzParseWatts feeds arbitrary strings to the power parser: it must
// never panic, and every accepted value must re-format to a string that
// parses back to (approximately) the same value.
func FuzzParseWatts(f *testing.F) {
	f.Add("115 W")
	f.Add("96kW")
	f.Add("-3 mW")
	f.Add("1e3")
	f.Add("")
	f.Add("kW")
	f.Fuzz(func(t *testing.T, input string) {
		w, err := ParseWatts(input)
		if err != nil {
			return
		}
		if math.IsNaN(float64(w)) {
			t.Fatalf("parsed NaN from %q", input)
		}
		if math.IsInf(float64(w), 0) || math.Abs(float64(w)) > 1e12 {
			return // formatting precision is not defined out there
		}
		back, err := ParseWatts(w.String())
		if err != nil {
			t.Fatalf("formatted value %q does not re-parse: %v", w.String(), err)
		}
		if float64(w) == 0 {
			if back != 0 {
				t.Fatalf("zero round-tripped to %v", back)
			}
			return
		}
		if math.Abs(float64(back-w))/math.Abs(float64(w)) > 1e-3 {
			t.Fatalf("round trip %q -> %v -> %v", input, w, back)
		}
	})
}
