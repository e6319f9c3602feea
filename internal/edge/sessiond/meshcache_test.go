package sessiond

import (
	"testing"

	"github.com/mar-hbo/hbo/internal/mesh"
)

// blobDecimator decimates one fixed blob, whatever the object name.
type blobDecimator struct{ full *mesh.Mesh }

func (d blobDecimator) Decimate(_ string, ratio float64, _ bool) (*mesh.Mesh, error) {
	return mesh.DecimateToRatio(d.full, ratio)
}

// TestMeshCacheHitNoAlloc pins the point of caching encoded bytes: a hit
// is a lookup that hands back the stored payload, with no encode and no
// allocation, and it is the same backing array the miss stored.
func TestMeshCacheHitNoAlloc(t *testing.T) {
	full, err := mesh.Blob(3000, 1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	dec := blobDecimator{full: full}
	svc, err := New(DefaultConfig(), dec)
	if err != nil {
		t.Fatal(err)
	}
	sess, _, err := svc.open("hit", testParams(1))
	if err != nil {
		t.Fatal(err)
	}
	miss, cached, err := sess.decimate(dec, "blob", 0.55)
	if err != nil || cached {
		t.Fatalf("first fetch: cached=%v err=%v, want a miss", cached, err)
	}
	var hit []byte
	allocs := testing.AllocsPerRun(100, func() {
		hit, cached, err = sess.decimate(dec, "blob", 0.55)
	})
	if err != nil || !cached {
		t.Fatalf("repeat fetch: cached=%v err=%v, want a hit", cached, err)
	}
	if allocs != 0 {
		t.Fatalf("cache hit made %v allocs/op, want 0", allocs)
	}
	if &hit[0] != &miss[0] || len(hit) != len(miss) {
		t.Fatal("cache hit did not serve the stored payload")
	}
}
