package service

import (
	"bytes"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"
)

// shortestFChecker compares appendShortestF with strconv's shortest %f,
// reusing its buffers, and stops the test after a few mismatches.
type shortestFChecker struct {
	t         *testing.T
	got, want []byte
	failures  int
}

func (c *shortestFChecker) check(x float64) {
	c.want = strconv.AppendFloat(c.want[:0], x, 'f', -1, 64)
	c.got = appendShortestF(c.got[:0], x)
	if !bytes.Equal(c.got, c.want) {
		c.t.Errorf("appendShortestF(%v, bits %#016x) = %s, want %s", x, math.Float64bits(x), c.got, c.want)
		if c.failures++; c.failures == 10 {
			c.t.FailNow()
		}
	}
}

// checkBoth checks x and -x when x lies in the %f range.
func (c *shortestFChecker) checkBoth(x float64) {
	if x >= 1e-6 && x < 1e21 {
		c.check(x)
		c.check(-x)
	}
}

// TestShortestFMatchesStrconv holds the Schubfach formatter to
// strconv.AppendFloat(b, x, 'f', -1, 64) over the whole range it serves:
// random bit patterns (10^7, fewer under -short), every power of two and of
// ten with its neighbours, and random decimals of 1 to 17 digits.
func TestShortestFMatchesStrconv(t *testing.T) {
	c := &shortestFChecker{t: t}
	rng := rand.New(rand.NewSource(0x5c15))

	lo, hi := math.Float64bits(1e-6), math.Float64bits(1e21)
	n := 10_000_000
	if testing.Short() {
		n = 200_000
	}
	for i := 0; i < n; i++ {
		x := math.Float64frombits(lo + uint64(rng.Int63n(int64(hi-lo))))
		if i&1 == 1 {
			x = -x
		}
		c.check(x)
	}

	neighbours := func(x float64) {
		c.checkBoth(math.Nextafter(x, 0))
		c.checkBoth(x)
		c.checkBoth(math.Nextafter(x, math.Inf(1)))
	}
	for e := -20; e <= 70; e++ {
		neighbours(math.Ldexp(1, e))
	}
	for e := -6; e <= 21; e++ {
		neighbours(math.Pow(10, float64(e)))
	}
	// The extremes of the range and the largest exact integers.
	neighbours(1e-6)
	neighbours(1 << 53)
	neighbours(1<<53 - 1)

	decimals := 200_000
	if testing.Short() {
		decimals = 20_000
	}
	for i := 0; i < decimals; i++ {
		digits := 1 + rng.Intn(17)
		mant := rng.Int63n(int64(math.Pow10(digits)))
		x, err := strconv.ParseFloat(strconv.FormatInt(mant, 10)+"e"+strconv.Itoa(rng.Intn(28)-6-digits), 64)
		if err != nil {
			t.Fatal(err)
		}
		c.checkBoth(x)
	}
}

// TestSchubfachTable recomputes g(k) = ⌊10^−k·2^(125−⌊log2 10^−k⌋)⌋ + 1
// with math/big for every k of the table.
func TestSchubfachTable(t *testing.T) {
	for k := schubfachKMin; k <= schubfachKMax; k++ {
		// 10^−k·2^r as num/den, with r = 125 − ⌊log2 10^−k⌋.
		r := 125 - flog2Pow10(-k)
		num, den := big.NewInt(1), big.NewInt(1)
		pow := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(k, -k))), nil)
		if k < 0 {
			num.Mul(num, pow)
		} else {
			den.Mul(den, pow)
		}
		if r >= 0 {
			num.Lsh(num, uint(r))
		} else {
			den.Lsh(den, uint(-r))
		}
		g := num.Quo(num, den)
		g.Add(g, big.NewInt(1))
		if g.BitLen() != 126 {
			t.Errorf("k=%d: g has %d bits, want 126", k, g.BitLen())
		}
		g0 := new(big.Int).And(g, big.NewInt(math.MaxInt64)).Uint64()
		g1 := new(big.Int).Rsh(g, 63).Uint64()
		if got := schubfachG[k-schubfachKMin]; got != [2]uint64{g1, g0} {
			t.Errorf("k=%d: table {%#x, %#x}, want {%#x, %#x}", k, got[0], got[1], g1, g0)
		}
	}
}
