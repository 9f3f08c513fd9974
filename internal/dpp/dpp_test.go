package dpp

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"insitu/internal/device"
)

// testDevices returns the device shapes the primitives must agree across.
func testDevices() []*device.Device {
	return []*device.Device{
		device.Serial(),
		device.New("w2", 2),
		{Name: "fine", Workers: 4, Grain: 3},
		{Name: "many", Workers: 9, Grain: 1},
	}
}

func TestForCoversAllIndices(t *testing.T) {
	for _, d := range testDevices() {
		for _, n := range []int{0, 1, 2, 7, 100, 1023} {
			seen := make([]int32, n)
			ForEach(d, n, func(i int) { seen[i]++ })
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("%s n=%d index %d visited %d times", d.Name, n, i, c)
				}
			}
		}
	}
}

func TestGatherScatterInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, d := range testDevices() {
		n := 500
		in := make([]float64, n)
		for i := range in {
			in[i] = rng.Float64()
		}
		perm := rng.Perm(n)
		idx := make([]int32, n)
		for i, p := range perm {
			idx[i] = int32(p)
		}
		inv := make([]int32, n)
		for i, p := range idx {
			inv[p] = int32(i)
		}
		gather := func(idx []int32, in, out []float64) {
			For(d, len(idx), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					out[i] = in[idx[i]]
				}
			})
		}
		gathered := make([]float64, n)
		gather(idx, in, gathered)
		back := make([]float64, n)
		gather(inv, gathered, back)
		for i := range in {
			if back[i] != in[i] {
				t.Fatalf("%s: gathering by the inverse permutation (a scatter) != x at %d", d.Name, i)
			}
		}
	}
}

func TestReduceSum(t *testing.T) {
	f := func(raw []int16) bool {
		in := make([]int64, len(raw))
		var want int64
		for i, v := range raw {
			in[i] = int64(v)
			want += int64(v)
		}
		for _, d := range testDevices() {
			got := Reduce(d, in, 0, func(a, b int64) int64 { return a + b })
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScanExclusiveMatchesSerial(t *testing.T) {
	f := func(raw []int16) bool {
		in := make([]int64, len(raw))
		for i, v := range raw {
			in[i] = int64(v)
		}
		want := make([]int64, len(in))
		var acc, wantTotal int64
		for i, v := range in {
			want[i] = acc
			acc += v
		}
		wantTotal = acc
		for _, d := range testDevices() {
			got := make([]int64, len(in))
			total := ScanExclusive(d, in, got, 0, func(a, b int64) int64 { return a + b })
			if total != wantTotal {
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScanEmpty(t *testing.T) {
	d := device.CPU()
	total := ScanExclusive(d, nil, nil, 42, func(a, b int) int { return a + b })
	if total != 42 {
		t.Errorf("empty scan total = %d", total)
	}
}

func TestCompactIndices(t *testing.T) {
	f := func(flags []bool) bool {
		var want []int32
		for i, fl := range flags {
			if fl {
				want = append(want, int32(i))
			}
		}
		for _, d := range testDevices() {
			var c Compactor
			c.Init(d)
			got := c.CompactIndices(flags)
			if len(got) != len(want) {
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSortPairs64Random(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, d := range testDevices() {
		for _, n := range []int{0, 1, 2, 3, 100, 4096} {
			keys := make([]uint64, n)
			vals := make([]int32, n)
			orig := make([]uint64, n)
			for i := range keys {
				keys[i] = rng.Uint64()
				vals[i] = int32(i)
				orig[i] = keys[i]
			}
			SortPairs64(d, keys, vals)
			if !slices.IsSorted(keys) {
				t.Fatalf("%s n=%d: keys not sorted", d.Name, n)
			}
			// The payload must still point at the original key.
			for i := range keys {
				if orig[vals[i]] != keys[i] {
					t.Fatalf("%s n=%d: payload broken at %d", d.Name, n, i)
				}
			}
		}
	}
}

func TestSortPairs64Stability(t *testing.T) {
	// Equal keys must preserve input order (LSD radix sorts are stable).
	d := device.New("w4", 4)
	d.Grain = 2
	n := 1000
	keys := make([]uint64, n)
	vals := make([]int32, n)
	rng := rand.New(rand.NewSource(5))
	for i := range keys {
		keys[i] = uint64(rng.Intn(7)) // many duplicates
		vals[i] = int32(i)
	}
	SortPairs64(d, keys, vals)
	for i := 1; i < n; i++ {
		if keys[i-1] == keys[i] && vals[i-1] >= vals[i] {
			t.Fatalf("stability violated at %d: key %d payloads %d,%d", i, keys[i], vals[i-1], vals[i])
		}
	}
}

func TestSortPairs32(t *testing.T) {
	d := device.CPU()
	keys := []uint32{5, 1, 4, 1, 3}
	vals := []int32{0, 1, 2, 3, 4}
	SortPairs32(d, keys, vals)
	wantK := []uint32{1, 1, 3, 4, 5}
	wantV := []int32{1, 3, 4, 2, 0}
	for i := range keys {
		if keys[i] != wantK[i] || vals[i] != wantV[i] {
			t.Fatalf("got %v/%v want %v/%v", keys, vals, wantK, wantV)
		}
	}
}

func TestSortMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	d := device.New("w5", 5)
	d.Grain = 16
	n := 3000
	keys := make([]uint64, n)
	vals := make([]int32, n)
	ref := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(rng.Intn(1 << 30))
		vals[i] = int32(i)
		ref[i] = keys[i]
	}
	sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
	SortPairs64(d, keys, vals)
	for i := range keys {
		if keys[i] != ref[i] {
			t.Fatalf("radix disagrees with stdlib at %d: %d vs %d", i, keys[i], ref[i])
		}
	}
}

func TestDeviceStatsAccumulate(t *testing.T) {
	d := device.New("instrumented", 2)
	d.Stats = &device.Stats{}
	ForEach(d, 10000, func(i int) { _ = math.Sqrt(float64(i)) })
	if d.Stats.Items() != 10000 {
		t.Errorf("items = %d", d.Stats.Items())
	}
	if d.Stats.Launches() != 1 {
		t.Errorf("launches = %d", d.Stats.Launches())
	}
	if d.Stats.Busy() <= 0 {
		t.Errorf("busy = %v", d.Stats.Busy())
	}
}
