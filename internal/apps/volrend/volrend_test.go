package volrend

import (
	"math"
	"testing"

	"svmsim/internal/apps/apptest"
)

func TestVolrend(t *testing.T) {
	apptest.Exercise(t, New(Small()))
}

// TestReferenceFromTable checks the density table against density at every
// voxel, and the reference image rendered from the table against one that
// samples density directly, bit for bit.
func TestReferenceFromTable(t *testing.T) {
	for _, p := range []Params{Small(), Default()} {
		dens := densities(p)
		if len(dens) != p.Vol*p.Vol*p.Vol {
			t.Fatalf("Vol %d: %d table entries, want %d", p.Vol, len(dens), p.Vol*p.Vol*p.Vol)
		}
		for z := 0; z < p.Vol; z++ {
			for y := 0; y < p.Vol; y++ {
				for x := 0; x < p.Vol; x++ {
					if got, want := dens[(z*p.Vol+y)*p.Vol+x], density(p, x, y, z); got != want {
						t.Fatalf("Vol %d: table(%d,%d,%d) = %d, want %d", p.Vol, x, y, z, got, want)
					}
				}
			}
		}
		table := reference(p, func(x, y, z int) uint8 { return dens[(z*p.Vol+y)*p.Vol+x] })
		direct := reference(p, func(x, y, z int) uint8 { return density(p, x, y, z) })
		for i := range direct {
			if math.Float64bits(table[i]) != math.Float64bits(direct[i]) {
				t.Fatalf("Vol %d: pixel %d = %g from the table, %g from density", p.Vol, i, table[i], direct[i])
			}
		}
	}
}
