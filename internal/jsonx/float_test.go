package jsonx

import (
	"encoding/json"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"
)

// refAppendFloat is encoding/json's float64 rule spelled with strconv:
// the implementation AppendFloat replaced, kept as the sweep's oracle
// because it is ~2× cheaper per value than json.Marshal.
func refAppendFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// checkFloat reports whether AppendFloat(f) matches the oracle, and
// json.Marshal as well when marshal is set.
func checkFloat(t testing.TB, f float64, marshal bool, got, want []byte) ([]byte, []byte) {
	got = AppendFloat(got[:0], f)
	want = refAppendFloat(want[:0], f)
	if string(got) != string(want) {
		t.Fatalf("AppendFloat(%#x = %v) = %s, want %s", math.Float64bits(f), f, got, want)
	}
	if marshal {
		js, err := json.Marshal(f)
		if err != nil {
			t.Fatalf("json.Marshal(%v): %v", f, err)
		}
		if string(got) != string(js) {
			t.Fatalf("AppendFloat(%v) = %s, json.Marshal = %s", f, got, js)
		}
	}
	return got, want
}

// sweepValues calls fn on n seeded values from each of the families the
// kernel branches on, about 11n values in all.
func sweepValues(n int, fn func(float64)) {
	rng := rand.New(rand.NewSource(14))
	both := func(f float64) { fn(f); fn(-f) }
	neighbours := func(f float64) {
		both(f)
		both(math.Nextafter(f, math.Inf(1)))
		both(math.Nextafter(f, 0))
	}
	// Random bit patterns: every binade, mostly the 'e' range.
	for i := 0; i < 2*n; i++ {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			fn(f)
		}
	}
	// Random bit patterns inside the 'f' range.
	for i := 0; i < n; i++ {
		fn(math.Float64frombits(rng.Uint64()&(1<<52-1) | uint64(1003+rng.Intn(90))<<52))
	}
	// Decimals with 0–8 fractional digits and their neighbours, the
	// values a nutrient table and its sums produce.
	for i := 0; i < n; i++ {
		d := rng.Intn(9)
		k := rng.Int63n(1 << uint(1+rng.Intn(52)))
		neighbours(float64(k) / float64(pow10[d]))
	}
	// ±0 and subnormals.
	both(0)
	for i := 0; i < n/4; i++ {
		both(math.Float64frombits(rng.Uint64() & (1<<52 - 1)))
	}
	// Both sides of the 1e-6 and 1e21 switchovers and of the 2⁵¹/10⁶
	// short-decimal limit.
	for _, edge := range []float64{1e-6, 1e21, (1 << 51) / 1e6} {
		up, down := edge, edge
		for i := 0; i < n/8; i++ {
			both(up)
			both(down)
			up = math.Nextafter(up, math.Inf(1))
			down = math.Nextafter(down, 0)
		}
		for i := 0; i < n/8; i++ {
			both(edge * (1 + (rng.Float64()-0.5)*1e-9))
		}
	}
}

// TestAppendFloatSweep pins AppendFloat against encoding/json's rule on
// about 11M seeded values; one in 64 also goes through json.Marshal.
func TestAppendFloatSweep(t *testing.T) {
	n := 1_000_000
	if raceEnabled {
		n /= 10
	}
	var got, want []byte
	count := 0
	sweepValues(n, func(f float64) {
		got, want = checkFloat(t, f, count%64 == 0, got, want)
		count++
	})
	t.Logf("%d values", count)
}

// FuzzAppendFloat renders any finite 64-bit pattern and compares it with
// json.Marshal.
func FuzzAppendFloat(f *testing.F) {
	for _, v := range []float64{0, math.Copysign(0, -1), 1, 0.1, 251.3, 1e-6, 9.999999999999999e-7,
		1e21, 999999999999999900000, (1 << 51) / 1e6, 2251799813.6851, 5e-324, math.MaxFloat64} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return
		}
		checkFloat(t, v, true, nil, nil)
	})
}

// TestAppendFloatZeroAllocs pins the 'f' range, both paths, at zero
// allocations into a buffer with room.
func TestAppendFloatZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	buf := make([]byte, 0, 64)
	for _, f := range []float64{0, 42, 251.3, -0.000123, 0.1 + 0.2, 1e20, 123456789012.34567} {
		if n := testing.AllocsPerRun(100, func() { buf = AppendFloat(buf[:0], f) }); n != 0 {
			t.Errorf("AppendFloat(%v) allocated %.1f times", f, n)
		}
	}
}

func TestDecimalLen(t *testing.T) {
	if got := decimalLen(0); got != 1 {
		t.Errorf("decimalLen(0) = %d, want 1", got)
	}
	for i, p := range pow10 {
		if got := decimalLen(p); got != i+1 {
			t.Errorf("decimalLen(%d) = %d, want %d", p, got, i+1)
		}
		if i > 0 {
			if got := decimalLen(p - 1); got != i {
				t.Errorf("decimalLen(%d) = %d, want %d", p-1, got, i)
			}
		}
	}
	if got := decimalLen(math.MaxUint64); got != 20 {
		t.Errorf("decimalLen(MaxUint64) = %d, want 20", got)
	}
}

// TestRyuPowersOfTen recomputes each table row: the top 128 bits of
// 10^q, truncated, for q in the table's range.
func TestRyuPowersOfTen(t *testing.T) {
	if got := len(ryuPowersOfTen); got != ryuPowersOfTenMaxExp10-ryuPowersOfTenMinExp10+1 {
		t.Fatalf("table has %d rows for [%d, %d]", got, ryuPowersOfTenMinExp10, ryuPowersOfTenMaxExp10)
	}
	for q := ryuPowersOfTenMinExp10; q <= ryuPowersOfTenMaxExp10; q++ {
		var m big.Int
		if q >= 0 {
			m.Exp(big.NewInt(10), big.NewInt(int64(q)), nil)
			if n := m.BitLen(); n <= 128 {
				m.Lsh(&m, uint(128-n))
			} else {
				m.Rsh(&m, uint(n-128))
			}
		} else {
			var d big.Int
			d.Exp(big.NewInt(10), big.NewInt(int64(-q)), nil)
			// 2^k/10^-q has 128 bits when k = 127 + bitlen(10^-q).
			m.Lsh(big.NewInt(1), uint(127+d.BitLen()))
			m.Quo(&m, &d)
			if n := m.BitLen(); n > 128 {
				m.Rsh(&m, uint(n-128))
			}
		}
		lo := new(big.Int).And(&m, new(big.Int).SetUint64(math.MaxUint64)).Uint64()
		hi := new(big.Int).Rsh(&m, 64).Uint64()
		if row := ryuPowersOfTen[q-ryuPowersOfTenMinExp10]; row != [2]uint64{lo, hi} {
			t.Errorf("1e%d: table {%#x, %#x}, want {%#x, %#x}", q, row[0], row[1], lo, hi)
		}
	}
}

// floatMix is a fixed value mix shaped like the floats nutriserve
// prints under the bulk-paper workload: 19% zero, 10% integers, 36%
// with at most six fractional digits and 35% with 16–17 significant
// digits (sums and scaled profiles).
func floatMix() []float64 {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 0, 1000)
	for i := 0; i < 1000; i++ {
		switch p := i % 100; {
		case p < 19:
			vals = append(vals, 0)
		case p < 29:
			vals = append(vals, float64(rng.Intn(2000)))
		case p < 65:
			d := 1 + rng.Intn(6)
			vals = append(vals, float64(rng.Int63n(1_000_000_000))/float64(pow10[d]))
		default:
			vals = append(vals, rng.Float64()*math.Pow(10, float64(rng.Intn(6)-2)))
		}
	}
	rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	return vals
}

var benchSink []byte

// BenchmarkAppendFloat reports ns per value over floatMix; the strconv
// sub-benchmark is the replaced implementation on the same values.
func BenchmarkAppendFloat(b *testing.B) {
	vals := floatMix()
	for _, bc := range []struct {
		name string
		fn   func([]byte, float64) []byte
	}{{"kernel", AppendFloat}, {"strconv", refAppendFloat}} {
		b.Run(bc.name, func(b *testing.B) {
			buf := make([]byte, 0, 64)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf = bc.fn(buf[:0], vals[i%len(vals)])
			}
			benchSink = buf
		})
	}
}
