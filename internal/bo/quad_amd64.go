package bo

// quadKernel reports whether PredictBatchInto runs each quad of candidates
// through predictQuadAVX2. It is set once, from the CPU: AVX2 and FMA with
// the OS saving YMM state, which also puts math.Exp on its FMA path, the
// one the kernel's exp copies. Tests switch it off to run the portable
// loop the kernel must match.
var quadKernel = hasAVX2FMA()

// predictQuadAVX2 runs rows from, from+1, … of PredictBatchInto's pass for
// the quad in st, four candidates to a YMM register, with st.m and st.v
// held in registers until it returns. It evaluates every row's kernel
// values first, then runs the substitutions two rows at a time. Each
// operation is predictRows' in its operand order, and m and v are
// updated in row order; exp is math.Exp's FMA sequence lane by lane. It
// returns st.n once every row is done, or the first row at which a
// candidate's √5·r/ℓ is above 708 or NaN — where math.Exp would leave its
// main path — without touching that row, so the caller can score it with
// predictRows and resume at the next.
//
//go:noescape
func predictQuadAVX2(st *quadState, from int) int

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// hasAVX2FMA reports CPUID's AVX2 and FMA bits and XGETBV's XMM and YMM
// state bits.
func hasAVX2FMA() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if ecx1&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}
