package policies

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/mar-hbo/hbo/internal/bo"
	"github.com/mar-hbo/hbo/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files from the current output")

// cmaesGoldenSteps drives every run through several distribution updates
// (λ = 8 at N = 3 and 9 at N = 5, after 3 warm-up draws).
const cmaesGoldenSteps = 72

// TestCMAESGolden pins CMA-ES's suggestion stream past its first
// generations, bit for bit: one line per suggestion, each coordinate as its
// float64 bits in hex. The arena goldens stop inside the first generation,
// so this is what shows that a change to the generation bookkeeping leaves
// the strategy itself alone.
func TestCMAESGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, n := range []int{3, 5} {
		for seed := uint64(1); seed <= 3; seed++ {
			dom := bo.Domain{N: n, RMin: 0.1}
			pol, err := New(NameCMAES, dom, testConfig(), sim.NewRNG(seed))
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < cmaesGoldenSteps; step++ {
				p, err := pol.Next()
				if err != nil {
					t.Fatalf("N=%d seed=%d step %d: %v", n, seed, step, err)
				}
				fmt.Fprintf(&buf, "%d %d %d", n, seed, step)
				for _, v := range p {
					fmt.Fprintf(&buf, " %016x", math.Float64bits(v))
				}
				buf.WriteByte('\n')
				if err := pol.Observe(p, syntheticCost(p)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	path := filepath.Join("testdata", "cmaes.golden")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		got := bytes.Split(buf.Bytes(), []byte("\n"))
		for i, line := range bytes.Split(want, []byte("\n")) {
			if i >= len(got) || !bytes.Equal(got[i], line) {
				t.Fatalf("line %d:\n got %s\nwant %s", i+1, got[min(i, len(got)-1)], line)
			}
		}
		t.Fatal("output longer than golden")
	}
}
