package experiments_test

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/mar-hbo/hbo/internal/experiments"
)

// TestAcquisitionGolden pins the acquisition ablation bit for bit: for
// seed 42, each acquisition's per-trial final costs and its mean
// converged-at iteration, as hex float bits. Regenerate deliberately with:
//
//	go test ./internal/experiments -run TestAcquisitionGolden -update
func TestAcquisitionGolden(t *testing.T) {
	res, err := experiments.RunAcquisitionStudy(42)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, o := range res.Outcomes {
		fmt.Fprintf(&buf, "%s converged %x finals", o.Name, math.Float64bits(o.MeanConvergedAt))
		for _, c := range o.FinalCosts {
			fmt.Fprintf(&buf, " %x", math.Float64bits(c))
		}
		buf.WriteByte('\n')
	}
	golden := filepath.Join("testdata", "acquisition.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("acquisition study drifted from %s:\n got:\n%s\nwant:\n%s", golden, buf.Bytes(), want)
	}
}
