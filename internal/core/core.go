// Package core implements the paper's contribution: the Rubix randomized
// line-to-row mappings.
//
//   - RubixS (§4.3–§4.4): static randomization. The gang address (line
//     address minus the k low bits selecting a line within a gang of 1–4
//     contiguous lines) is encrypted with a programmable-width cipher; the
//     ciphertext concatenated with the untouched k bits is the physical line
//     index. Lines co-residing in a row lose all spatial correlation, which
//     eliminates hot rows; the gang preserves enough locality to recoup
//     row-buffer hits.
//
//   - RubixD (§5): dynamic randomization without a programmable cipher.
//     The line address splits into line-in-gang (k bits), gang-in-row
//     (p bits), and global row address. Each of the 2^p vertical groups
//     (v-groups) owns a remapping circuit {currKey, nextKey, Ptr} that
//     XOR-translates the row address and gradually migrates gangs from the
//     current key to the next (Security-Refresh style), one swap per remap
//     event (probability RemapRate per activation).
//
// Both satisfy mapping.Mapper and mapping.Inverter.
package core

import (
	"fmt"

	"rubix/internal/geom"
	"rubix/internal/kcipher"
	"rubix/internal/mapping"
	"rubix/internal/metrics"
	"rubix/internal/rng"
)

// GangBits returns log2 of the gang size, validating it.
func GangBits(gangSize int) (uint, error) {
	switch gangSize {
	case 1:
		return 0, nil
	case 2:
		return 1, nil
	case 4:
		return 2, nil
	case 8:
		return 3, nil
	}
	return 0, fmt.Errorf("core: unsupported gang size %d (want 1, 2, 4, or 8)", gangSize)
}

// --- Rubix-S ----------------------------------------------------------------

// RubixS is the static randomized mapping. It is immutable after
// construction and safe for concurrent use.
type RubixS struct {
	gangSize int
	gangBits uint
	gangMask uint64
	cipher   *kcipher.Cipher
}

var _ mapping.FullMapper = (*RubixS)(nil)

// NewRubixS builds Rubix-S for geometry g with the given gang size and
// cipher key. The cipher width is the line-address width minus the gang
// bits (e.g. 26 bits for the paper's 16 GB configuration at gang size 4).
func NewRubixS(g geom.Geometry, gangSize int, key kcipher.Key) (*RubixS, error) {
	gb, err := GangBits(gangSize)
	if err != nil {
		return nil, err
	}
	width := g.LineBits() - gb
	c, err := kcipher.New(width, key)
	if err != nil {
		return nil, fmt.Errorf("core: Rubix-S cipher: %w", err)
	}
	return &RubixS{
		gangSize: gangSize,
		gangBits: gb,
		gangMask: (uint64(1) << gb) - 1,
		cipher:   c,
	}, nil
}

// Name implements mapping.Mapper.
func (m *RubixS) Name() string { return fmt.Sprintf("Rubix-S(GS%d)", m.gangSize) }

// GangSize reports the number of contiguous lines randomized together.
func (m *RubixS) GangSize() int { return m.gangSize }

// CipherBits reports the width of the underlying cipher.
func (m *RubixS) CipherBits() uint { return m.cipher.Bits() }

// Map implements mapping.Mapper: encrypt the gang address, keep the
// line-in-gang bits.
func (m *RubixS) Map(line uint64) uint64 {
	gang := line >> m.gangBits
	return m.cipher.Encrypt(gang)<<m.gangBits | line&m.gangMask
}

// Unmap implements mapping.Inverter.
func (m *RubixS) Unmap(phys uint64) uint64 {
	gang := phys >> m.gangBits
	return m.cipher.Decrypt(gang)<<m.gangBits | phys&m.gangMask
}

// MapBatch implements mapping.BatchMapper: the gang addresses are staged
// into phys, encrypted in one ladder walk with the round schedule in
// registers, then recombined with the untouched line-in-gang bits. The
// staging is why lines and phys must not overlap.
func (m *RubixS) MapBatch(lines, phys []uint64) {
	phys = phys[:len(lines)]
	for i, line := range lines {
		phys[i] = line >> m.gangBits
	}
	m.cipher.EncryptBatch(phys, phys)
	for i, line := range lines {
		phys[i] = phys[i]<<m.gangBits | line&m.gangMask
	}
}

// UnmapBatch implements mapping.BatchInverter.
func (m *RubixS) UnmapBatch(phys, lines []uint64) {
	lines = lines[:len(phys)]
	for i, p := range phys {
		lines[i] = p >> m.gangBits
	}
	m.cipher.DecryptBatch(lines, lines)
	for i, p := range phys {
		lines[i] = lines[i]<<m.gangBits | p&m.gangMask
	}
}

// StorageBytes reports the SRAM cost: one 96-bit key (the paper reports
// "just 16 bytes of storage" for key plus cipher state).
func (m *RubixS) StorageBytes() int { return 16 }

// --- Rubix-D ----------------------------------------------------------------

// vGroupState is the remapping circuit of one v-group (or v-segment).
type vGroupState struct {
	currKey uint64
	nextKey uint64
	ptr     uint64
	epochs  uint64 // completed epochs (for stats/tests)
}

// SwapOp describes one gang swap performed by a remap event, so the memory
// controller can charge its timing/energy cost: the paper's sequence is
// open-row-X, read, open-row-Y, write, open-row-X again — 3 ACTs and
// 2×gangSize CAS reads plus 2×gangSize CAS writes.
type SwapOp struct {
	RowX uint64 // global row of the gang at Ptr
	RowY uint64 // global row of its destination (Ptr ^ nextKey)
	Acts int    // activations performed (3)
	CAS  int    // column accesses performed (4 × gangSize)
}

// RubixD is the dynamic randomized mapping. It is NOT safe for concurrent
// use: the simulator owns it single-threaded, as the hardware would.
type RubixD struct {
	gangSize  int
	gangBits  uint
	pBits     uint // gang-in-row bits
	rowBits   uint // global row address bits (per segment)
	segBits   uint // v-segment bits (0 = unsegmented)
	selBits   uint // channel+rank+bank bits (kept inside the translated address)
	rowMask   uint64
	groups    []vGroupState // indexed by vgroup<<segBits | segment
	remapRate float64       // probability of a remap event per activation
	rng       *rng.Xoshiro256
	swaps     uint64 // total swap operations performed
	skips     uint64 // remap events skipped (already-remapped location)
	gen       uint64 // remap episodes completed; see Generation
	obs       RemapObserver

	mSwaps *metrics.Counter
	mSkips *metrics.Counter
}

var _ mapping.FullMapper = (*RubixD)(nil)

// RubixDConfig configures NewRubixD.
type RubixDConfig struct {
	GangSize  int     // 1, 2, 4, or 8 lines per gang
	RemapRate float64 // remap probability per activation (paper: 0.01)
	Segments  int     // v-segments per v-group (power of two; 1 = none, §5.4)
	Seed      uint64  // PRNG seed for key generation and remap dice
	// NoStagger starts every circuit's Ptr at zero instead of a random
	// position. Staggered walks (the default) keep the per-circuit swap
	// traffic from aligning on the same global rows, which would itself
	// manufacture hot rows; tests use NoStagger for deterministic epochs.
	NoStagger bool
}

// NewRubixD builds Rubix-D for geometry g.
func NewRubixD(g geom.Geometry, cfg RubixDConfig) (*RubixD, error) {
	gb, err := GangBits(cfg.GangSize)
	if err != nil {
		return nil, err
	}
	if gb > g.SlotBits() {
		return nil, fmt.Errorf("core: gang size %d exceeds row of %d lines", cfg.GangSize, g.LinesPerRow())
	}
	if cfg.RemapRate < 0 || cfg.RemapRate > 1 {
		return nil, fmt.Errorf("core: remap rate %v out of [0, 1]", cfg.RemapRate)
	}
	segs := cfg.Segments
	if segs == 0 {
		segs = 1
	}
	if segs < 1 || segs&(segs-1) != 0 {
		return nil, fmt.Errorf("core: segments must be a power of two, got %d", cfg.Segments)
	}
	segBits := uint(0)
	for v := segs; v > 1; v >>= 1 {
		segBits++
	}
	p := g.SlotBits() - gb
	rowAddrBits := g.LineBits() - g.SlotBits()
	selBits := uint(0)
	for v := g.BanksTotal(); v > 1; v >>= 1 {
		selBits++
	}
	if segBits+selBits >= rowAddrBits {
		return nil, fmt.Errorf("core: %d segments do not fit %d row-address bits", segs, rowAddrBits)
	}
	d := &RubixD{
		gangSize:  cfg.GangSize,
		gangBits:  gb,
		pBits:     p,
		rowBits:   rowAddrBits - segBits,
		segBits:   segBits,
		selBits:   selBits,
		remapRate: cfg.RemapRate,
		rng:       rng.NewXoshiro256(cfg.Seed),
	}
	d.rowMask = (uint64(1) << d.rowBits) - 1
	n := (1 << p) << segBits
	d.groups = make([]vGroupState, n)
	for i := range d.groups {
		d.groups[i].currKey = d.rng.Next() & d.rowMask
		d.groups[i].nextKey = d.rng.Next() & d.rowMask
		if !cfg.NoStagger {
			d.groups[i].ptr = d.rng.Next() & d.rowMask
		}
	}
	return d, nil
}

// Name implements mapping.Mapper.
func (d *RubixD) Name() string { return fmt.Sprintf("Rubix-D(GS%d)", d.gangSize) }

// GangSize reports the number of contiguous lines per gang.
func (d *RubixD) GangSize() int { return d.gangSize }

// SetMetrics implements metrics.Settable: rubixd_remap_episodes counts
// episodes that swapped, rubixd_remap_skips those that found the location
// already remapped.
func (d *RubixD) SetMetrics(r *metrics.Recorder) {
	d.mSwaps = r.Counter("rubixd_remap_episodes")
	d.mSkips = r.Counter("rubixd_remap_skips")
}

// RemapObserver is notified after every remap episode. group is the circuit
// index (vgroup<<segBits | segment, matching Groups()); ptr is the circuit's
// pointer AFTER the episode; rolled reports that the episode completed an
// epoch (ptr wrapped to zero with nextKey folded into currKey). Package
// check implements it for epoch-completeness verification.
type RemapObserver interface {
	OnRemapStep(group int, ptr uint64, rolled bool)
}

// SetRemapObserver installs o; pass nil to detach. Observation is pull-free
// and does not perturb the mapping or its RNG.
func (d *RubixD) SetRemapObserver(o RemapObserver) { d.obs = o }

// RowAddrBits reports the per-circuit row-address width in bits.
func (d *RubixD) RowAddrBits() uint { return d.rowBits }

// TranslateGroup applies circuit group's current translation to a circuit-
// local row address (masked into domain). Exposed for invariant checking.
func (d *RubixD) TranslateGroup(group int, rowAddr uint64) uint64 {
	return translate(&d.groups[group], rowAddr&d.rowMask)
}

// UntranslateGroup inverts TranslateGroup for the same circuit state.
func (d *RubixD) UntranslateGroup(group int, rowAddr uint64) uint64 {
	return untranslate(&d.groups[group], rowAddr&d.rowMask)
}

// split decomposes an address into (rowAddr, segment, vgroup, lineInGang).
// It is deliberately domain-neutral: the seg/vgroup/lig coordinates are
// invariant under the per-circuit row translation, so split is applied to
// logical lines (Map) and physical lines (Unmap, NoteActivation) alike.
//
// The v-segment (§5.4) is formed from the LOW bits of the row-within-bank
// address — "every Nth row of the v-group forms a v-segment" — which sit
// just above the channel/rank/bank select bits of the global row index.
// The select bits stay inside the translated address so segmentation never
// exempts bank selection from randomization.
func (d *RubixD) split(addr uint64) (rowAddr, seg, vgroup, lig uint64) {
	lig = addr & ((1 << d.gangBits) - 1)
	vgroup = addr >> d.gangBits & ((1 << d.pBits) - 1)
	full := addr >> (d.gangBits + d.pBits)
	sel := full & ((1 << d.selBits) - 1)
	rest := full >> d.selBits
	seg = rest & ((1 << d.segBits) - 1)
	high := rest >> d.segBits
	rowAddr = high<<d.selBits | sel
	return rowAddr, seg, vgroup, lig
}

func (d *RubixD) join(rowAddr, seg, vgroup, lig uint64) uint64 {
	sel := rowAddr & ((1 << d.selBits) - 1)
	high := rowAddr >> d.selBits
	full := (high<<d.segBits|seg)<<d.selBits | sel
	return full<<(d.pBits+d.gangBits) | vgroup<<d.gangBits | lig
}

func (d *RubixD) group(vgroup, seg uint64) *vGroupState {
	return &d.groups[vgroup<<d.segBits|seg]
}

// translate applies the two-step translation of §5.1 to a row address using
// the given circuit: L' = L ^ currKey; if L' < Ptr or (L' ^ nextKey) < Ptr,
// L' ^= nextKey.
func translate(gs *vGroupState, rowAddr uint64) uint64 {
	l := rowAddr ^ gs.currKey
	if l < gs.ptr || l^gs.nextKey < gs.ptr {
		l ^= gs.nextKey
	}
	return l
}

// untranslate inverts translate for the same circuit state.
func untranslate(gs *vGroupState, phys uint64) uint64 {
	// A location p holds the content of logical row l where translate maps
	// l's image to p. Since translate either leaves l^currKey in place or
	// XORs it with nextKey, invert by testing both candidates.
	cand := phys
	if translate(gs, cand^gs.currKey) == phys {
		return cand ^ gs.currKey
	}
	cand = phys ^ gs.nextKey
	return cand ^ gs.currKey
}

// Map implements mapping.Mapper.
func (d *RubixD) Map(line uint64) uint64 {
	rowAddr, seg, vgroup, lig := d.split(line)
	gs := d.group(vgroup, seg)
	return d.join(translate(gs, rowAddr), seg, vgroup, lig)
}

// Unmap implements mapping.Inverter.
func (d *RubixD) Unmap(phys uint64) uint64 {
	rowAddr, seg, vgroup, lig := d.split(phys)
	gs := d.group(vgroup, seg)
	return d.join(untranslate(gs, rowAddr), seg, vgroup, lig)
}

// MapBatch implements mapping.BatchMapper. The whole batch is translated
// under the circuit state at call time: a remap episode between the call
// and the use of an entry invalidates it. Callers that can trigger remaps
// mid-batch (the memory controller's activation feedback) must watch
// Generation and re-translate the not-yet-consumed tail when it advances.
func (d *RubixD) MapBatch(lines, phys []uint64) {
	phys = phys[:len(lines)]
	for i, line := range lines {
		phys[i] = d.Map(line)
	}
}

// UnmapBatch implements mapping.BatchInverter, under the same staleness
// contract as MapBatch.
func (d *RubixD) UnmapBatch(phys, lines []uint64) {
	lines = lines[:len(phys)]
	for i, p := range phys {
		lines[i] = d.Unmap(p)
	}
}

// Generation counts remap episodes: it advances every time any circuit's
// translation changes, so cached translations (batch pre-translation, the
// paranoid-mode collision window) are valid exactly while it holds still.
func (d *RubixD) Generation() uint64 { return d.gen }

// NoteActivation must be called by the memory controller on every row
// activation caused by a demand access to physical line phys. With
// probability RemapRate it performs one remap episode for the activated
// v-group (§5.4) and returns the swap performed, if any, so the controller
// can charge its cost. ok reports whether a swap happened.
func (d *RubixD) NoteActivation(phys uint64) (op SwapOp, ok bool) {
	if d.remapRate <= 0 {
		return SwapOp{}, false
	}
	if d.rng.Float64() >= d.remapRate {
		return SwapOp{}, false
	}
	_, seg, vgroup, _ := d.split(phys)
	return d.remapStep(vgroup, seg)
}

// remapStep advances the circuit of (vgroup, seg) by one episode: swap the
// gang at Ptr with its destination unless the location was already remapped,
// then advance Ptr, rolling the epoch when the walk completes.
func (d *RubixD) remapStep(vgroup, seg uint64) (op SwapOp, ok bool) {
	d.gen++
	gs := d.group(vgroup, seg)
	src := gs.ptr
	dst := src ^ gs.nextKey
	swapped := false
	if dst > src {
		// Physical gangs at row addresses src and dst exchange contents.
		op = SwapOp{
			RowX: d.globalRowOf(src, seg, vgroup),
			RowY: d.globalRowOf(dst, seg, vgroup),
			Acts: 3,
			CAS:  4 * d.gangSize,
		}
		swapped = true
		d.swaps++
		d.mSwaps.Inc()
	} else {
		d.skips++
		d.mSkips.Inc()
	}
	gs.ptr++
	rolled := false
	if gs.ptr == uint64(1)<<d.rowBits {
		// Epoch complete: fold nextKey into currKey, draw a fresh key.
		gs.currKey ^= gs.nextKey
		gs.nextKey = d.rng.Next() & d.rowMask
		gs.ptr = 0
		gs.epochs++
		rolled = true
	}
	if d.obs != nil {
		d.obs.OnRemapStep(int(vgroup<<d.segBits|seg), gs.ptr, rolled)
	}
	return op, swapped
}

// globalRowOf converts a circuit-local physical row address into the global
// row index used by the DRAM model.
func (d *RubixD) globalRowOf(rowAddr, seg, vgroup uint64) uint64 {
	// The physical line index is join(rowAddr, seg, vgroup, 0); its global
	// row drops the slot bits (= pBits + gangBits).
	return d.join(rowAddr, seg, vgroup, 0) >> (d.pBits + d.gangBits)
}

// Swaps reports the number of gang swaps performed so far.
func (d *RubixD) Swaps() uint64 { return d.swaps }

// Skips reports the number of remap episodes that skipped swapping.
func (d *RubixD) Skips() uint64 { return d.skips }

// Epochs reports the total completed epochs across all circuits.
func (d *RubixD) Epochs() uint64 {
	var n uint64
	for i := range d.groups {
		n += d.groups[i].epochs
	}
	return n
}

// StorageBytes reports the SRAM cost of the remapping metadata: 8 bytes
// (currKey+nextKey+Ptr packed; the paper's "less than 8 bytes for each pair
// of keys and ptr") per circuit.
func (d *RubixD) StorageBytes() int { return 8 * len(d.groups) }

// Groups reports the number of remapping circuits (v-groups × segments).
func (d *RubixD) Groups() int { return len(d.groups) }

// --- Static keyed-XOR (§6.2) -------------------------------------------------

// StaticXOR is Rubix-D with dynamic remapping disabled (§6.2): each v-group
// XORs the row address with its own boot-time random key. It retains static
// randomization (different gangs of a row come from unrelated addresses)
// while avoiding swap overheads. Immutable and safe for concurrent use.
type StaticXOR struct {
	gangSize int
	gangBits uint
	pBits    uint
	rowMask  uint64
	keys     []uint64 // one per v-group
}

var _ mapping.FullMapper = (*StaticXOR)(nil)

// NewStaticXOR builds the §6.2 keyed-XOR mapping.
func NewStaticXOR(g geom.Geometry, gangSize int, seed uint64) (*StaticXOR, error) {
	gb, err := GangBits(gangSize)
	if err != nil {
		return nil, err
	}
	p := g.SlotBits() - gb
	rowAddrBits := g.LineBits() - g.SlotBits()
	r := rng.NewXoshiro256(seed)
	keys := make([]uint64, 1<<p)
	mask := (uint64(1) << rowAddrBits) - 1
	for i := range keys {
		keys[i] = r.Next() & mask
	}
	return &StaticXOR{
		gangSize: gangSize,
		gangBits: gb,
		pBits:    p,
		rowMask:  mask,
		keys:     keys,
	}, nil
}

// Name implements mapping.Mapper.
func (m *StaticXOR) Name() string { return fmt.Sprintf("StaticXOR(GS%d)", m.gangSize) }

// Map implements mapping.Mapper.
func (m *StaticXOR) Map(line uint64) uint64 {
	lig := line & ((1 << m.gangBits) - 1)
	vgroup := line >> m.gangBits & ((1 << m.pBits) - 1)
	rowAddr := line >> (m.gangBits + m.pBits)
	rowAddr ^= m.keys[vgroup]
	return rowAddr<<(m.pBits+m.gangBits) | vgroup<<m.gangBits | lig
}

// Unmap implements mapping.Inverter (XOR is an involution).
func (m *StaticXOR) Unmap(phys uint64) uint64 { return m.Map(phys) }

// MapBatch implements mapping.BatchMapper.
func (m *StaticXOR) MapBatch(lines, phys []uint64) {
	phys = phys[:len(lines)]
	for i, line := range lines {
		phys[i] = m.Map(line)
	}
}

// UnmapBatch implements mapping.BatchInverter (the mapping is an involution).
func (m *StaticXOR) UnmapBatch(phys, lines []uint64) { m.MapBatch(phys, lines) }
