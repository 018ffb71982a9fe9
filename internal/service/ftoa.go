package service

import (
	"encoding/json"
	"math"
	"math/bits"
	"strconv"
)

// appendJSONFloat appends f as encoding/json's float64 encoder writes it:
// the shortest decimal that round-trips, in %f form for 1e-6 ≤ |f| < 1e21
// and in %e form (with e-09 written e-9) outside it. NaN and ±Inf are the
// encoder's UnsupportedValueError. Zero and the %e range go through
// strconv; the %f range, where every served watt, hertz and α lies, goes
// through appendShortestF.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	abs := math.Abs(f)
	switch {
	case abs >= 1e-6 && abs < 1e21:
		return appendShortestF(b, f), nil
	case math.IsNaN(f) || math.IsInf(f, 0):
		return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	case abs == 0:
		return strconv.AppendFloat(b, f, 'f', -1, 64), nil
	}
	b = strconv.AppendFloat(b, f, 'e', -1, 64)
	if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}

// appendShortestF appends strconv.AppendFloat(b, x, 'f', -1, 64) for
// 1e-6 ≤ |x| < 1e21. With x = c·2^q (2^52 ≤ c < 2^53), an integer below
// 2^53 is written whole, as strconv does; any other x takes the shortest
// decimal in its rounding interval from Schubfach (R. Giulietti, "The
// Schubfach way to render doubles", 2020).
func appendShortestF(b []byte, x float64) []byte {
	u := math.Float64bits(x)
	if u>>63 != 0 {
		b = append(b, '-')
	}
	c := u&(1<<52-1) | 1<<52
	q := int(u>>52&0x7ff) - 1075
	if q <= 0 && bits.TrailingZeros64(c) >= -q {
		return appendDecimalF(b, c>>uint(-q), 0)
	}
	f, e := schubfach(c, q)
	return appendDecimalF(b, f, e)
}

// The decimal exponents k = ⌊log10 2^q⌋ that the %f range reaches: q runs
// from −72 (1e-6 ≈ 2^−19.9) to 17 (1e21 ≈ 2^69.8).
const (
	schubfachKMin = -22
	schubfachKMax = 5
)

// schubfachG holds g(k) = ⌊10^−k·2^(125−⌊log2 10^−k⌋)⌋ + 1 for k from
// schubfachKMin to schubfachKMax as two 63-bit limbs {g1, g0}, g = g1·2^63
// + g0; TestSchubfachTable recomputes it with math/big.
var schubfachG = [schubfachKMax - schubfachKMin + 1][2]uint64{
	{0x43c33c1937564800, 0x0000000000000001}, // −22
	{0x6c6b935b8bbd4000, 0x0000000000000001}, // −21
	{0x56bc75e2d6310000, 0x0000000000000001}, // −20
	{0x4563918244f40000, 0x0000000000000001}, // −19
	{0x6f05b59d3b200000, 0x0000000000000001}, // −18
	{0x58d15e1762800000, 0x0000000000000001}, // −17
	{0x470de4df82000000, 0x0000000000000001}, // −16
	{0x71afd498d0000000, 0x0000000000000001}, // −15
	{0x5af3107a40000000, 0x0000000000000001}, // −14
	{0x48c2739500000000, 0x0000000000000001}, // −13
	{0x746a528800000000, 0x0000000000000001}, // −12
	{0x5d21dba000000000, 0x0000000000000001}, // −11
	{0x4a817c8000000000, 0x0000000000000001}, // −10
	{0x7735940000000000, 0x0000000000000001}, // −9
	{0x5f5e100000000000, 0x0000000000000001}, // −8
	{0x4c4b400000000000, 0x0000000000000001}, // −7
	{0x7a12000000000000, 0x0000000000000001}, // −6
	{0x61a8000000000000, 0x0000000000000001}, // −5
	{0x4e20000000000000, 0x0000000000000001}, // −4
	{0x7d00000000000000, 0x0000000000000001}, // −3
	{0x6400000000000000, 0x0000000000000001}, // −2
	{0x5000000000000000, 0x0000000000000001}, // −1
	{0x4000000000000000, 0x0000000000000001}, // 0
	{0x6666666666666666, 0x3333333333333334}, // 1
	{0x51eb851eb851eb85, 0x0f5c28f5c28f5c29}, // 2
	{0x4189374bc6a7ef9d, 0x5916872b020c49bb}, // 3
	{0x68db8bac710cb295, 0x74f0d844d013a92b}, // 4
	{0x53e2d6238da3c211, 0x43f3e0370cdc8755}, // 5
}

// schubfach returns the shortest f·10^e in the rounding interval of c·2^q
// (ends included when c is even), the one nearest c·2^q when several are
// that short, ties to an even f.
func schubfach(c uint64, q int) (f uint64, e int) {
	out := c & 1
	cb := c << 2
	cbr := cb + 2
	var cbl uint64
	var k int
	if c != 1<<52 {
		cbl = cb - 2
		k = flog10Pow2(q)
	} else {
		// At a power of two the interval below is half as wide.
		cbl = cb - 1
		k = flog10ThreeQuartersPow2(q)
	}
	h := uint(q + flog2Pow10(-k) + 2)
	g := &schubfachG[k-schubfachKMin]
	vb, vbl, vbr := roundToOdd(g, cb<<h), roundToOdd(g, cbl<<h), roundToOdd(g, cbr<<h)

	// One digit fewer first: 10⌊s/10⌋ and the next multiple of ten; the
	// interval is narrower than 10^(k+1), so at most one lies inside.
	s := vb >> 2
	sp10 := s / 10 * 10
	tp10 := sp10 + 10
	upin := vbl+out <= sp10<<2
	wpin := tp10<<2+out <= vbr
	if upin != wpin {
		if upin {
			return sp10, k
		}
		return tp10, k
	}
	t := s + 1
	uin := vbl+out <= s<<2
	win := t<<2+out <= vbr
	if uin != win {
		if uin {
			return s, k
		}
		return t, k
	}
	if mid := int64(vb) - int64((s+t)<<1); mid < 0 || mid == 0 && s&1 == 0 {
		return s, k
	}
	return t, k
}

// roundToOdd returns ⌊g·cp/2^127⌋ with its lowest bit set when the
// division is inexact, for g = {g1, g0} and cp < 2^63.
func roundToOdd(g *[2]uint64, cp uint64) uint64 {
	g1, g0 := g[0], g[1]
	x1, _ := bits.Mul64(g0, cp)
	y1, y0 := bits.Mul64(g1, cp)
	z := y0>>1 + x1
	vbp := y1 + z>>63
	return vbp | (z&(1<<63-1)+(1<<63-1))>>63
}

// flog10Pow2 is ⌊log10 2^e⌋, flog10ThreeQuartersPow2 ⌊log10 ¾·2^e⌋ and
// flog2Pow10 ⌊log2 10^e⌋, in fixed point; exact far beyond the exponents
// used here.
func flog10Pow2(e int) int { return int(int64(e) * 661_971_961_083 >> 41) }

func flog10ThreeQuartersPow2(e int) int {
	return int((int64(e)*661_971_961_083 - 274_743_187_321) >> 41)
}

func flog2Pow10(e int) int { return int(int64(e) * 913_124_641_741 >> 38) }

// appendDecimalF writes f·10^e (0 < f < 10^17) in %f form, dropping
// trailing zeros after the point, as strconv does for shortest digits.
func appendDecimalF(b []byte, f uint64, e int) []byte {
	// Scale f to exactly 17 digits, d[0..17), so f·10^e = 0.d·10^dp. An
	// f of L bits has ⌊log10 2^L⌋ digits, or one more.
	n := flog10Pow2(bits.Len64(f))
	if f >= pow10[n] {
		n++
	}
	f *= pow10[17-n]
	dp := e + n
	var d [17]byte
	hm, l := f/100_000_000, uint32(f%100_000_000)
	d[0] = byte('0' + hm/100_000_000)
	put8Digits((*[8]byte)(d[1:9]), uint32(hm%100_000_000))
	put8Digits((*[8]byte)(d[9:17]), l)
	nd := 17
	for d[nd-1] == '0' {
		nd--
	}

	switch {
	case dp <= 0:
		b = append(b, '0', '.')
		for i := dp; i < 0; i++ {
			b = append(b, '0')
		}
		return append(b, d[:nd]...)
	case dp < nd:
		b = append(b, d[:dp]...)
		b = append(b, '.')
		return append(b, d[dp:nd]...)
	}
	b = append(b, d[:nd]...)
	for i := nd; i < dp; i++ {
		b = append(b, '0')
	}
	return b
}

// put8Digits writes a < 10^8 as eight digits into d in 32-bit arithmetic:
// y = ⌊(a+1)·2^28/10^8⌋ − 1 is a/10^8 in 28-bit fixed point, and each ×10
// moves the next digit above bit 28.
func put8Digits(d *[8]byte, a uint32) {
	y := uint32((uint64(a)+1)<<28/100_000_000) - 1
	for i := range d {
		t := 10 * y
		d[i] = byte('0' + t>>28)
		y = t & (1<<28 - 1)
	}
}

// pow10 holds 10^0 … 10^17.
var pow10 = [18]uint64{
	1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17,
}
