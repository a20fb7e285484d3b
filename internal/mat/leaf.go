package mat

// Leaf is one implementation of the package's order-preserving kernels:
// the tiles of the dense products (tile.go), the sparse row kernels
// (sparse.go) and the substitution of Cholesky-QR (qr.go). Every leaf
// puts different output elements in different lanes and adds each
// element's terms left to right, a rounded product at a time, so all
// leaves compute the same bits. The kernels run on the leaf NativeLeaf
// picks; a caller may name another to compare them.
type Leaf uint8

const (
	LeafPortable Leaf = iota // Go, on every platform
	LeafAVX2                 // the *_amd64.s files: VMULPD, then VADDPD, VSUBPD or VDIVPD; never fused
)

var nativeLeaf = func() Leaf {
	if haveAVX2 {
		return LeafAVX2
	}
	return LeafPortable
}()

// NativeLeaf returns the leaf this process runs, chosen once from the
// CPU: the AVX2 leaf on amd64 with AVX2 (unless built with the purego
// tag), the portable one elsewhere.
func NativeLeaf() Leaf { return nativeLeaf }

// Leaves returns every leaf this process can run, the portable one
// first.
func Leaves() []Leaf {
	if haveAVX2 {
		return []Leaf{LeafPortable, LeafAVX2}
	}
	return []Leaf{LeafPortable}
}

func (l Leaf) String() string {
	if l == LeafAVX2 {
		return "avx2"
	}
	return "portable"
}
