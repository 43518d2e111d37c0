// Package workload generates memory-access streams (LLC-miss traces) for
// the simulator.
//
// The paper evaluates 18 SPEC CPU2017 rate workloads, 16 four-way mixes,
// the STREAM suite, three illustrative microkernels (Figure 4), and —
// implicitly, for the security analysis — Rowhammer attack patterns. The
// SPEC traces themselves are proprietary, so each workload is replaced by a
// synthetic generator calibrated to the published characteristics (Table 2:
// MPKI, unique rows activated, hot-row counts): a mixture of sequential
// streaming, page-strided accesses, uniform-random accesses within the
// footprint, and a Zipf-distributed hot-page set. The mixture exercises the
// same line-to-row behaviour the paper studies, which is what Rubix acts on.
package workload

import (
	"fmt"

	"rubix/internal/rng"
)

// Generator produces a stream of program line addresses.
type Generator interface {
	// Name identifies the workload.
	Name() string
	// Next returns the next line address accessed.
	Next() uint64
	// InBurst reports whether the NEXT access continues the current
	// memory-level-parallel group: a run of misses that a real core's
	// MSHRs would issue concurrently (a spatial burst, a prefetchable
	// stride). The core model batches such accesses at one issue time;
	// independent (dependent-chain) accesses serialize.
	InBurst() bool
}

// Profile bundles a generator with the core-model parameters of the
// workload it represents.
type Profile struct {
	Gen  Generator
	MPKI float64 // LLC misses per kilo-instruction
	MLP  float64 // memory-level parallelism of the core running it
}

// --- Microkernels (Figure 4) --------------------------------------------------

// Stream sequentially walks a footprint of lines, wrapping around.
type Stream struct {
	base  uint64
	lines uint64
	pos   uint64
}

// NewStream builds the stream microkernel over [base, base+lines).
func NewStream(base, lines uint64) (*Stream, error) {
	if lines == 0 {
		return nil, fmt.Errorf("workload: Stream with zero lines")
	}
	return &Stream{base: base, lines: lines}, nil
}

// Name implements Generator.
func (s *Stream) Name() string { return "stream" }

// Next implements Generator.
func (s *Stream) Next() uint64 {
	a := s.base + s.pos
	s.pos++
	if s.pos == s.lines {
		s.pos = 0
	}
	return a
}

// InBurst implements Generator: a stream is fully prefetchable.
func (s *Stream) InBurst() bool { return true }

// Stride walks the footprint with a fixed line stride (the paper's stride-64
// kernel touches one line per 4 KB page, then advances to the next line of
// each page once the footprint is exhausted).
type Stride struct {
	base   uint64
	lines  uint64
	stride uint64
	pos    uint64
	offset uint64
}

// NewStride builds the strided microkernel over [base, base+lines) with the
// given line stride.
func NewStride(base, lines, stride uint64) (*Stride, error) {
	if lines == 0 || stride == 0 {
		return nil, fmt.Errorf("workload: Stride with zero lines or stride (lines=%d, stride=%d)", lines, stride)
	}
	return &Stride{base: base, lines: lines, stride: stride}, nil
}

// Name implements Generator.
func (s *Stride) Name() string { return fmt.Sprintf("stride-%d", s.stride) }

// Next implements Generator.
func (s *Stride) Next() uint64 {
	a := s.base + s.pos + s.offset
	s.pos += s.stride
	if s.pos >= s.lines {
		s.pos = 0
		s.offset++
		if s.offset == s.stride {
			s.offset = 0
		}
	}
	return a
}

// InBurst implements Generator: strided walks are prefetchable.
func (s *Stride) InBurst() bool { return true }

// Random accesses uniform-random lines within the footprint.
type Random struct {
	base  uint64
	lines uint64
	rng   *rng.Xoshiro256
}

// NewRandom builds the random microkernel over [base, base+lines).
func NewRandom(base, lines uint64, seed uint64) (*Random, error) {
	if lines == 0 {
		return nil, fmt.Errorf("workload: Random with zero lines")
	}
	return &Random{base: base, lines: lines, rng: rng.NewXoshiro256(seed)}, nil
}

// Name implements Generator.
func (r *Random) Name() string { return "random" }

// Next implements Generator.
func (r *Random) Next() uint64 { return r.base + r.rng.Uint64n(r.lines) }

// InBurst implements Generator: random accesses are independent, so a real
// core still overlaps them through its MSHRs.
func (r *Random) InBurst() bool { return true }

// --- SPEC-calibrated synthetic workloads ---------------------------------------

// SpecParams calibrates one synthetic SPEC CPU2017 stand-in.
type SpecParams struct {
	Name string
	// MPKI is the LLC misses per kilo-instruction (Table 2).
	MPKI float64
	// Pages is the 4 KB-page footprint touched during a refresh window.
	Pages int
	// Mixture weights; they need not sum to one (they are normalized).
	WStream float64 // sequential streaming over the footprint
	WStride float64 // page-strided walk (one line per page)
	WRandom float64 // uniform random line within the footprint
	WHot    float64 // Zipf-distributed accesses to the hot-page set
	// HotPages is the size of the hot set; ZipfS its skew.
	HotPages int
	ZipfS    float64
	// BurstLen is the mean run length of spatially-sequential misses
	// (geometrically distributed). Real LLC miss streams are bursty:
	// streaming and prefetch-friendly workloads miss many consecutive
	// lines in a row, pointer-chasing workloads do not. It controls the
	// row-buffer hit rate. Zero means 8.
	BurstLen float64
	// HotBurst is the mean run length within hot pages. Hot-page traffic
	// is typically pointer-y (hash tables, trees, metadata), so its runs
	// are much shorter than streaming runs — which is what makes hot pages
	// accumulate activations. Zero means max(1, BurstLen/4).
	HotBurst float64
	// MLP is the memory-level parallelism assumed for the core model.
	MLP float64
}

// Spec is a synthetic SPEC workload generator.
type Spec struct {
	p      SpecParams
	base   uint64 // base line address of this instance's footprint
	lines  uint64 // footprint in lines
	pageLn uint64 // lines per page (64)
	rng    *rng.Xoshiro256
	zipf   *rng.Zipf
	hotOff []uint64 // shuffled placement of hot pages within the footprint
	cw     [4]float64

	seqPos    uint64
	stridePos uint64
	strideOff uint64

	runLen    rng.Geometric // stream/random burst length, mean BurstLen
	strideLen rng.Geometric // stride burst length, mean BurstLen/2
	hotLen    rng.Geometric // hot-page burst length, mean HotBurst
	burstLeft int
	burstComp int    // component of the current burst
	burstAddr uint64 // next line of the current burst (random/hot components)
	burstWrap uint64 // exclusive upper bound the burst wraps at
	burstBase uint64 // wrap base
}

// PageLines is the number of 64 B lines in a 4 KB page.
const PageLines = 64

// NewSpec builds a synthetic SPEC workload instance with its footprint based
// at line address base.
func NewSpec(p SpecParams, base uint64, seed uint64) (*Spec, error) {
	if p.Pages <= 0 {
		return nil, fmt.Errorf("workload: %s has no footprint", p.Name)
	}
	r := rng.NewXoshiro256(seed)
	s := &Spec{
		p:      p,
		base:   base,
		lines:  uint64(p.Pages) * PageLines,
		pageLn: PageLines,
		rng:    r,
	}
	burstLen := p.BurstLen
	if burstLen <= 0 {
		burstLen = 8
	}
	hotBurst := p.HotBurst
	if hotBurst <= 0 {
		hotBurst = burstLen / 4
	}
	if hotBurst < 1 {
		hotBurst = 1
	}
	s.runLen = rng.NewGeometric(burstLen)
	s.strideLen = rng.NewGeometric(burstLen / 2) // strided runs are shorter
	s.hotLen = rng.NewGeometric(hotBurst)
	if p.WStream+p.WStride+p.WRandom+p.WHot <= 0 {
		s.p.WRandom = 1
	}
	// The mixture weights are ACCESS shares, but a component is drawn per
	// BURST; divide each weight by its component's mean burst length so the
	// resulting access distribution matches the configured shares.
	w := [4]float64{
		s.p.WStream / burstLen,
		s.p.WStride / max(1, burstLen/2),
		s.p.WRandom / burstLen,
		s.p.WHot / hotBurst,
	}
	total := w[0] + w[1] + w[2] + w[3]
	s.cw[0] = w[0] / total
	s.cw[1] = s.cw[0] + w[1]/total
	s.cw[2] = s.cw[1] + w[2]/total
	s.cw[3] = 1
	if p.WHot > 0 {
		hp := p.HotPages
		if hp <= 0 {
			hp = 1
		}
		if hp > p.Pages {
			hp = p.Pages
		}
		zs := p.ZipfS
		if zs <= 0 {
			zs = 0.6
		}
		s.zipf = rng.NewZipf(r, hp, zs)
		// Scatter the hot pages across the footprint so hot rows are not
		// artificially adjacent.
		s.hotOff = make([]uint64, hp)
		for i := range s.hotOff {
			s.hotOff[i] = uint64(r.Intn(p.Pages))
		}
	}
	return s, nil
}

// Name implements Generator.
func (s *Spec) Name() string { return s.p.Name }

// Params returns the calibration parameters.
func (s *Spec) Params() SpecParams { return s.p }

// Next implements Generator. Misses arrive in spatially-sequential bursts:
// a component is drawn per burst, and the burst then walks consecutive
// lines (within the page for the hot component), which is what gives the
// baseline mapping its row-buffer hits.
func (s *Spec) Next() uint64 {
	if s.burstLeft <= 0 {
		s.newBurst()
	}
	s.burstLeft--
	switch s.burstComp {
	case 0: // stream
		a := s.base + s.seqPos
		s.seqPos++
		if s.seqPos == s.lines {
			s.seqPos = 0
		}
		return a
	case 1: // page stride: one line per page, every access a new page
		a := s.base + s.stridePos + s.strideOff
		s.stridePos += s.pageLn
		if s.stridePos >= s.lines {
			s.stridePos = 0
			s.strideOff++
			if s.strideOff == s.pageLn {
				s.strideOff = 0
			}
		}
		return a
	default: // random or hot: sequential within the burst window
		a := s.burstAddr
		s.burstAddr++
		if s.burstAddr >= s.burstWrap {
			s.burstAddr = s.burstBase
		}
		return a
	}
}

// newBurst draws the next burst's component, length, and start address.
func (s *Spec) newBurst() {
	u := s.rng.Float64()
	n := s.runLen.Sample(s.rng)
	switch {
	case u < s.cw[0]:
		s.burstComp = 0
	case u < s.cw[1]:
		s.burstComp = 1
		n = s.strideLen.Sample(s.rng)
	case u < s.cw[2]:
		s.burstComp = 2
		start := s.rng.Uint64n(s.lines)
		s.burstAddr = s.base + start
		s.burstBase = s.base
		s.burstWrap = s.base + s.lines
	default:
		s.burstComp = 3
		n = s.hotLen.Sample(s.rng)
		page := s.hotOff[s.zipf.Next()]
		pb := s.base + page*s.pageLn
		s.burstAddr = pb + s.rng.Uint64n(s.pageLn)
		s.burstBase = pb
		s.burstWrap = pb + s.pageLn
		if n > int(s.pageLn) {
			n = int(s.pageLn)
		}
	}
	s.burstLeft = n
}

// InBurst implements Generator: accesses within one spatial burst overlap
// in the core's MSHRs; burst boundaries serialize.
func (s *Spec) InBurst() bool { return s.burstLeft > 0 }

// --- STREAM suite ---------------------------------------------------------------

// StreamKernel identifies one of McCalpin's STREAM kernels.
type StreamKernel int

// The four STREAM kernels.
const (
	StreamCopy  StreamKernel = iota // c[i] = a[i]
	StreamScale                     // b[i] = k*c[i]
	StreamAdd                       // c[i] = a[i] + b[i]
	StreamTriad                     // a[i] = b[i] + k*c[i]
)

func (k StreamKernel) String() string {
	switch k {
	case StreamCopy:
		return "copy"
	case StreamScale:
		return "scale"
	case StreamAdd:
		return "add"
	case StreamTriad:
		return "triad"
	}
	return "unknown"
}

// arrays reports how many arrays the kernel touches per element.
func (k StreamKernel) arrays() int {
	if k == StreamAdd || k == StreamTriad {
		return 3
	}
	return 2
}

// StreamSuite generates the interleaved array accesses of a STREAM kernel
// over arrays of the given size (§5.13 uses 1 GiB arrays).
type StreamSuite struct {
	kernel     StreamKernel
	base       uint64
	lines      uint64 // lines per array
	blockStart uint64
	inBlock    uint64
	phase      int
}

// NewStreamSuite builds the generator. arrayBytes is the per-array size.
func NewStreamSuite(kernel StreamKernel, base uint64, arrayBytes uint64) (*StreamSuite, error) {
	lines := arrayBytes / 64
	if lines == 0 {
		return nil, fmt.Errorf("workload: STREAM array of %d bytes holds no cache line", arrayBytes)
	}
	return &StreamSuite{kernel: kernel, base: base, lines: lines}, nil
}

// Name implements Generator.
func (s *StreamSuite) Name() string { return "stream-" + s.kernel.String() }

// streamBlock is the number of consecutive lines missed per array before
// switching to the next array: hardware prefetchers and the vectorized loop
// make STREAM's miss trace arrive in line-sequential runs.
const streamBlock = 8

// Next implements Generator: round-robin blocks of consecutive lines across
// the kernel's arrays.
func (s *StreamSuite) Next() uint64 {
	a := s.base + uint64(s.phase)*s.lines + s.blockStart + s.inBlock
	s.inBlock++
	if s.inBlock == streamBlock {
		s.inBlock = 0
		s.phase++
		if s.phase == s.kernel.arrays() {
			s.phase = 0
			s.blockStart += streamBlock
			if s.blockStart >= s.lines {
				s.blockStart = 0
			}
		}
	}
	return a
}

// InBurst implements Generator: STREAM is fully prefetchable.
func (s *StreamSuite) InBurst() bool { return true }

// StreamMPKI is the paper's characterization of STREAM: "LLC MPKI of more
// than 50".
const StreamMPKI = 55.0

// --- Attack patterns --------------------------------------------------------------

// RowResolver translates a global row index and slot into the program line
// address that reaches it — the attacker's knowledge of the memory mapping.
// mapping.Inverter composed with the geometry provides it; the sim package
// wires this up.
type RowResolver func(globalRow uint64, slot int) uint64

// Attack hammers a set of aggressor rows in round-robin, the access pattern
// of single-sided (1 row), double-sided (2 rows around a victim) and
// many-sided attacks. Accesses alternate lines within each aggressor row to
// defeat naive line-level caching; every access targets a closed row, so
// each is an activation.
type Attack struct {
	name    string
	rows    []uint64
	resolve RowResolver
	i       int
	slot    int
}

// NewAttack builds an attack on the given aggressor global rows.
func NewAttack(name string, rows []uint64, resolve RowResolver) (*Attack, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("workload: attack %q with no aggressor rows", name)
	}
	return &Attack{name: name, rows: rows, resolve: resolve}, nil
}

// Name implements Generator.
func (a *Attack) Name() string { return a.name }

// Next implements Generator.
func (a *Attack) Next() uint64 {
	r := a.rows[a.i]
	addr := a.resolve(r, a.slot)
	a.i++
	if a.i == len(a.rows) {
		a.i = 0
		a.slot = (a.slot + 1) % 8
	}
	return addr
}

// InBurst implements Generator: hammering loops chain accesses with fences
// and flushes, so they do not overlap.
func (a *Attack) InBurst() bool { return false }
