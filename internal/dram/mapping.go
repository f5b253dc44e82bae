package dram

import (
	"fmt"
	"math/bits"
)

// Mapper translates physical addresses to DRAM coordinates. ANVIL's kernel
// module ships with "a reverse engineered physical address to DRAM row and
// bank mapping scheme" (§3.3); Mapper is that scheme's seat in the simulator.
// Both the memory system and the detector use the same Mapper, mirroring the
// real setup where the reverse-engineered map matched the controller's.
type Mapper interface {
	// Map decodes a physical byte address into a coordinate.
	Map(pa uint64) Coord
	// Unmap encodes a coordinate back to the base physical address of the
	// given column. Unmap(Map(pa)) == pa for in-range addresses.
	Unmap(c Coord) uint64
	// Geometry reports the geometry the mapper was built for.
	Geometry() Geometry
}

// LinearMapper is the straightforward bit-sliced address map:
//
//	pa = | row | rank | bank | column |
//
// with an optional XOR of low row bits into the bank index (bank hashing, as
// on Sandy Bridge class controllers, which spreads consecutive rows across
// banks to reduce conflicts). Row numbers are consecutive within a bank and
// physically adjacent rows carry consecutive numbers, matching the paper's
// assumption "that sequentially numbered rows are physically adjacent".
type LinearMapper struct {
	geom     Geometry
	colBits  int
	bankBits int
	rankBits int
	rowBits  int
	bankHash bool
}

// NewLinearMapper builds a mapper for the geometry. All geometry dimensions
// must be powers of two. bankHash enables XOR bank indexing.
func NewLinearMapper(g Geometry, bankHash bool) (*LinearMapper, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	isPow2 := func(v int) bool { return v > 0 && v&(v-1) == 0 }
	if !isPow2(g.BanksPerRank) || !isPow2(g.Ranks) || !isPow2(g.RowsPerBank) {
		return nil, fmt.Errorf("dram: linear mapper requires power-of-two geometry, got %+v", g)
	}
	return &LinearMapper{
		geom:     g,
		colBits:  bits.TrailingZeros(uint(g.RowBytes)),
		bankBits: bits.TrailingZeros(uint(g.BanksPerRank)),
		rankBits: bits.TrailingZeros(uint(g.Ranks)),
		rowBits:  bits.TrailingZeros(uint(g.RowsPerBank)),
		bankHash: bankHash,
	}, nil
}

// Geometry implements Mapper.
func (m *LinearMapper) Geometry() Geometry { return m.geom }

func (m *LinearMapper) hash(bank, row int) int {
	if !m.bankHash {
		return bank
	}
	return bank ^ (row & (m.geom.BanksPerRank - 1))
}

// Map implements Mapper.
func (m *LinearMapper) Map(pa uint64) Coord {
	col := int(pa & uint64(m.geom.RowBytes-1))
	pa >>= uint(m.colBits)
	bank := int(pa & uint64(m.geom.BanksPerRank-1))
	pa >>= uint(m.bankBits)
	rank := int(pa & uint64(m.geom.Ranks-1))
	pa >>= uint(m.rankBits)
	row := int(pa & uint64(m.geom.RowsPerBank-1))
	bank = m.hash(bank, row)
	return Coord{Bank: rank*m.geom.BanksPerRank + bank, Row: row, Col: col}
}

// Unmap implements Mapper.
func (m *LinearMapper) Unmap(c Coord) uint64 {
	rank := c.Bank / m.geom.BanksPerRank
	bank := c.Bank % m.geom.BanksPerRank
	// the XOR hash is an involution for fixed row
	bank = m.hash(bank, c.Row)
	pa := uint64(c.Row)
	pa = pa<<uint(m.rankBits) | uint64(rank)
	pa = pa<<uint(m.bankBits) | uint64(bank)
	pa = pa<<uint(m.colBits) | uint64(c.Col)
	return pa
}

var _ Mapper = (*LinearMapper)(nil)

// XORMapper generalises the XOR-function address maps reverse engineered on
// Intel controllers (Hund et al. [12] for Haswell; the paper's authors
// found "a slightly modified version of this mapping" on Sandy Bridge):
// each bank-index bit is the parity of the physical address ANDed with a
// mask. Row and column decode as in the linear map. The detector and the
// attack both carry such a map; a mismatch between the carried map and the
// controller's real one is what TestWrongMapperDegradesProtection studies.
type XORMapper struct {
	linear    *LinearMapper
	bankMasks []uint64 // one mask per bank-index bit
}

// NewXORMapper builds a mapper whose bank bits are parities of masked
// address bits. masks must have exactly log2(BanksPerRank) entries.
func NewXORMapper(g Geometry, masks []uint64) (*XORMapper, error) {
	lin, err := NewLinearMapper(g, false)
	if err != nil {
		return nil, err
	}
	if 1<<len(masks) != g.BanksPerRank {
		return nil, fmt.Errorf("dram: need %d bank masks for %d banks, got %d",
			bits.TrailingZeros(uint(g.BanksPerRank)), g.BanksPerRank, len(masks))
	}
	for i, m := range masks {
		if m == 0 {
			return nil, fmt.Errorf("dram: bank mask %d is zero", i)
		}
	}
	return &XORMapper{linear: lin, bankMasks: masks}, nil
}

// SandyBridgeMasks returns bank-bit XOR masks in the style of the
// reverse-engineered Sandy Bridge map: each bank bit folds its plain
// position with a row bit, spreading consecutive rows across banks.
func SandyBridgeMasks(g Geometry) []uint64 {
	n := bits.TrailingZeros(uint(g.BanksPerRank))
	colBits := bits.TrailingZeros(uint(g.RowBytes))
	rowShift := colBits + n + bits.TrailingZeros(uint(g.Ranks))
	masks := make([]uint64, n)
	for i := 0; i < n; i++ {
		masks[i] = 1<<uint(colBits+i) | 1<<uint(rowShift+i)
	}
	return masks
}

// Geometry implements Mapper.
func (m *XORMapper) Geometry() Geometry { return m.linear.geom }

func parity(x uint64) int { return bits.OnesCount64(x) & 1 }

// Map implements Mapper.
func (m *XORMapper) Map(pa uint64) Coord {
	c := m.linear.Map(pa)
	bank := 0
	for i, mask := range m.bankMasks {
		bank |= parity(pa&mask) << uint(i)
	}
	rank := c.Bank / m.linear.geom.BanksPerRank
	return Coord{Bank: rank*m.linear.geom.BanksPerRank + bank, Row: c.Row, Col: c.Col}
}

// Unmap implements Mapper: it solves for the plain bank bits that make the
// XOR functions produce the requested bank. Because each mask includes the
// bank bit's own position (as SandyBridgeMasks guarantees), the solution is
// direct: plainBit = wantedBit XOR parity(rest of the masked bits).
func (m *XORMapper) Unmap(c Coord) uint64 {
	geom := m.linear.geom
	rank := c.Bank / geom.BanksPerRank
	want := c.Bank % geom.BanksPerRank
	// Start from the address with plain bank bits zero.
	base := m.linear.Unmap(Coord{Bank: rank * geom.BanksPerRank, Row: c.Row, Col: c.Col})
	colBits := bits.TrailingZeros(uint(geom.RowBytes))
	plain := 0
	for i, mask := range m.bankMasks {
		ownBit := uint64(1) << uint(colBits+i)
		rest := parity(base & mask &^ ownBit)
		bit := (want >> uint(i) & 1) ^ rest
		plain |= bit << uint(i)
	}
	return base | uint64(plain)<<uint(colBits)
}

var _ Mapper = (*XORMapper)(nil)

// UniformBlocks reports whether m maps every address of each size-aligned
// block of physical memory (size a power of two) to one bank and row: for a
// LinearMapper, when a row spans at least size bytes; for an XORMapper,
// when besides that no bank mask takes a bit below size. It is false for
// any other Mapper.
func UniformBlocks(m Mapper, size uint64) bool {
	switch mm := m.(type) {
	case *LinearMapper:
		return uint64(mm.geom.RowBytes) >= size
	case *XORMapper:
		for _, mask := range mm.bankMasks {
			if mask&(size-1) != 0 {
				return false
			}
		}
		return uint64(mm.linear.geom.RowBytes) >= size
	}
	return false
}
