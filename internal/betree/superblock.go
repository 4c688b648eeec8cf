package betree

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"betrfs/internal/codec"
	"betrfs/internal/wal"
)

// The superblock alternates between two fixed slots of the "super" file,
// one per generation parity. A slot holds magic, generation and payload
// length, the payload, and a crc over all of it. The payload holds the next
// MSN, the log hint, and each tree's root, next node id and block table.
const (
	superMagic    = 0x5bee7f5b
	superSlotSize = 4 << 20
	superHdrSize  = 16
)

// superblock is a superblock payload: what a checkpoint persists and a
// mount starts from.
type superblock struct {
	nextMSN MSN
	hint    wal.Hint
	trees   [2]superTree // meta, data
}

// superTree is one tree's part of the superblock.
type superTree struct {
	root, next nodeID
	bt         *blockTable
}

// encode returns generation gen of sb as a slot image. The blob is sized
// from the two block tables and built in one buffer.
func (sb *superblock) encode(gen uint64) []byte {
	var tables [2][]byte
	plen := 4 * 8
	for i, st := range sb.trees {
		tables[i] = st.bt.serialize()
		plen += 3*8 + len(tables[i])
	}
	e := codec.Encoder{Buf: make([]byte, 0, superHdrSize+plen+4)}
	e.U32(superMagic)
	e.U64(gen)
	e.U32(uint32(plen))
	e.U64(uint64(sb.nextMSN))
	e.I64(sb.hint.Offset)
	e.U64(sb.hint.LSN)
	e.U64(uint64(sb.hint.Epoch))
	for i, st := range sb.trees {
		e.U64(uint64(st.root))
		e.U64(uint64(st.next))
		e.U64(uint64(len(tables[i])))
		e.Bytes(tables[i])
	}
	e.U32(crc32.ChecksumIEEE(e.Buf))
	return e.Buf
}

// superHeader checks a slot header: the magic, and a payload length
// whose slot image (header, payload, crc) fits the slot. ok is false for a
// slot that holds no valid superblock.
func superHeader(hdr []byte) (gen uint64, plen int, ok bool) {
	d := codec.NewDecoder(hdr)
	magic, gen, plen := d.U32(), d.U64(), int(d.U32())
	if d.Err() != nil || magic != superMagic || superHdrSize+plen+4 > superSlotSize {
		return 0, 0, false
	}
	return gen, plen, true
}

// decodeSuperblock parses a superblock payload whose trees live in files of
// the given capacities (meta, data). The payload passed its crc, but a
// payload written by a buggy or foreign writer must still give an error
// rather than a panic: every length is checked against the bytes present,
// each block table must load (loadBlockTable), each root must be mapped,
// and each next node id must lie above every mapped one.
func decodeSuperblock(payload []byte, capacity [2]int64) (superblock, error) {
	var sb superblock
	d := codec.NewDecoder(payload)
	sb.nextMSN = MSN(d.U64())
	sb.hint = wal.Hint{Offset: d.I64(), LSN: d.U64(), Epoch: uint32(d.U64())}
	for i := range sb.trees {
		st := &sb.trees[i]
		st.root, st.next = nodeID(d.U64()), nodeID(d.U64())
		table := d.Take(int(d.U64()))
		if err := d.Err(); err != nil {
			return sb, fmt.Errorf("betree: superblock truncated at tree %d: %w", i, err)
		}
		bt, err := loadBlockTable(capacity[i], table)
		if err != nil {
			return sb, err
		}
		if _, ok := bt.entries[st.root]; !ok {
			return sb, fmt.Errorf("betree: superblock root %d not in its block table", st.root)
		}
		for id := range bt.entries {
			if id >= st.next {
				return sb, fmt.Errorf("betree: superblock next node id %d not above mapped node %d", st.next, id)
			}
		}
		st.bt = bt
	}
	if err := d.Done(); err != nil {
		return sb, fmt.Errorf("betree: superblock: %w", err)
	}
	return sb, nil
}

// writeSuperblock writes the next generation's superblock into the slot
// its parity picks.
func (s *Store) writeSuperblock(hint wal.Hint) {
	sb := superblock{nextMSN: s.nextMSN, hint: hint}
	for i, t := range [2]*Tree{s.meta, s.data} {
		sb.trees[i] = superTree{root: t.rootID, next: t.nextNodeID, bt: t.bt}
	}
	s.generation++
	blob := sb.encode(s.generation)
	if len(blob) > superSlotSize {
		panic("betree: superblock exceeds slot")
	}
	s.env.Serialize(len(blob))
	s.env.Checksum(len(blob))
	slot := int64(s.generation%2) * superSlotSize
	s.devCheck(s.superF.WriteAt(blob, slot))
	s.devCheck(s.superF.Flush())
}

// readSuperblock returns the newest valid superblock generation. A device
// read error fails the mount rather than counting the slot invalid: an
// unreadable slot may hold the newer generation, and "no superblock" would
// make Open format a fresh store over existing data.
func (s *Store) readSuperblock() (gen uint64, payload []byte, ok bool, err error) {
	for slot := int64(0); slot < 2; slot++ {
		hdr := make([]byte, superHdrSize)
		if rerr := s.superF.ReadAt(hdr, slot*superSlotSize); rerr != nil {
			return 0, nil, false, rerr
		}
		g, plen, valid := superHeader(hdr)
		if !valid {
			continue
		}
		blob := make([]byte, superHdrSize+plen+4)
		if rerr := s.superF.ReadAt(blob, slot*superSlotSize); rerr != nil {
			return 0, nil, false, rerr
		}
		s.env.Checksum(len(blob))
		end := superHdrSize + plen
		if crc32.ChecksumIEEE(blob[:end]) != binary.BigEndian.Uint32(blob[end:]) {
			continue
		}
		if !ok || g > gen {
			gen = g
			payload = blob[superHdrSize:end]
			ok = true
		}
	}
	return gen, payload, ok, nil
}

// loadSuperblock installs a superblock payload: the next MSN, each tree's
// root, next node id and block table. It returns the log hint recovery
// starts from.
func (s *Store) loadSuperblock(payload []byte) (wal.Hint, error) {
	trees := [2]*Tree{s.meta, s.data}
	sb, err := decodeSuperblock(payload, [2]int64{s.meta.f.Capacity(), s.data.f.Capacity()})
	if err != nil {
		return wal.Hint{}, err
	}
	s.nextMSN = sb.nextMSN
	for i, t := range trees {
		st := sb.trees[i]
		t.rootID, t.nextNodeID, t.bt = st.root, st.next, st.bt
		t.bt.onFree = t.discardFreed
	}
	return sb.hint, nil
}
