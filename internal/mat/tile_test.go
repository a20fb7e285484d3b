package mat

import (
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestTiledProductsMatchReference calls each leaf explicitly, through
// both left-operand views and both packings, and holds every product to
// the bits of dotRows, the loop the tiles replaced. Shapes straddle the
// 4×8 tile: fewer than four left rows, fewer than eight right rows,
// inner lengths 0 and 1, and sizes that are multiples of neither. Values
// include rows of +0 and −0, infinities opposite zero left factors under
// skipZero, and NaN; outputs start dirty, and the Gram form must leave
// the strict lower triangle as it found it.
func TestTiledProductsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	shapes := [][3]int{ // left rows, inner length, right rows
		{1, 1, 1}, {3, 0, 5}, {2, 1, 7}, {3, 5, 2}, {4, 8, 8}, {5, 9, 13},
		{9, 17, 6}, {13, 33, 23}, {17, 12, 40}, {37, 45, 41},
	}
	values := []struct {
		name     string
		skipZero bool
		fill     func(a, b *Matrix)
	}{
		{"random", false, func(a, b *Matrix) {}},
		{"signed zero rows", false, func(a, b *Matrix) { zeroRows(rng, a); zeroRows(rng, b) }},
		{"signed zero rows skipped", true, func(a, b *Matrix) { zeroRows(rng, a); zeroRows(rng, b) }},
		{"infinity opposite zero", true, func(a, b *Matrix) {
			// Every zero of a faces an infinity in some row of b, so a
			// term the skipping sum keeps turns the element into NaN.
			for i := range a.data {
				if rng.Intn(5) == 0 {
					a.data[i] = math.Copysign(0, float64(rng.Intn(2)*2-1))
				}
			}
			zeroRows(rng, a)
			for i := range a.rows {
				for k := range a.cols {
					if a.At(i, k) == 0 && b.rows > 0 {
						b.Set(rng.Intn(b.rows), k, math.Inf(rng.Intn(2)*2-1))
					}
				}
			}
		}},
		{"NaN", false, func(a, b *Matrix) {
			for _, m := range []*Matrix{a, b} {
				for i := range m.data {
					if rng.Intn(11) == 0 {
						m.data[i] = math.NaN()
					}
				}
			}
		}},
	}
	for _, shape := range shapes {
		rows, inner, cols := shape[0], shape[1], shape[2]
		for _, v := range values {
			a, b := randMatrix(rng, rows, inner), randMatrix(rng, cols, inner)
			v.fill(a, b)
			at, bt := a.T(), b.T()
			want := New(rows, cols)
			for i := range rows {
				dotRows(want.Row(i), a.Row(i), b, 0, cols, v.skipZero)
			}
			dirty := randMatrix(rng, rows, rows)
			wantUpper := dirty.Clone()
			for i := range rows {
				dotRows(wantUpper.Row(i), a.Row(i), a, i, rows, v.skipZero)
			}

			var byRows, byCols, gram panels
			byRows.packRows(b)
			byCols.packCols(bt)
			gram.packRows(a)
			for _, lf := range Leaves() {
				for _, workers := range []int{0, 1, 3} {
					label := fmt.Sprintf("%d×%d·(%d×%d)ᵀ %s leaf=%s workers=%d", rows, inner, cols, inner, v.name, lf, workers)
					for _, op := range []struct {
						name string
						a    lhs
						b    *panels
					}{
						{"rows·rows", rowsOf(a), &byRows},
						{"cols·rows", colsOf(at), &byRows},
						{"rows·cols", rowsOf(a), &byCols},
					} {
						c := randMatrix(rng, rows, cols)
						tiledInto(lf, c, op.a, op.b, workers, v.skipZero)
						requireSameBits(t, label+" "+op.name, c, want)
					}
					for _, a := range []lhs{rowsOf(a), colsOf(at)} {
						g := dirty.Clone()
						tiledUpperInto(lf, g, a, &gram, workers, v.skipZero)
						requireSameBits(t, label+" upper", g, wantUpper)
					}
				}
			}
		}
	}
}

// TestAVX2LeafIsUnfused is the tripwire behind "no fused multiply-add":
// every assembly leaf must multiply and add in separate rounded steps,
// so no fused mnemonic may appear in any assembly file of the module.
func TestAVX2LeafIsUnfused(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found above internal/mat: %v", err)
	}
	fused := regexp.MustCompile(`(?i)\bV(FMADD|FNMADD|FMSUB|FNMSUB)\w*`)
	files := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".s") {
			return nil
		}
		files++
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(src), "\n") {
			if m := fused.FindString(line); m != "" {
				rel, _ := filepath.Rel(root, path)
				t.Errorf("%s:%d uses the fused instruction %s: its sums would lose the serial bits", rel, i+1, m)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("found no assembly file to check")
	}
}
