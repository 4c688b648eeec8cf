package betree

import (
	"errors"
	"sort"

	"betrfs/internal/ioerr"
)

// ScrubReport is the verification result for one on-disk node image.
type ScrubReport struct {
	Tree string // "meta" or "data"
	ID   uint64 // node ID
	Off  int64  // extent offset within the tree's node file
	Len  int64  // extent length in bytes
	Err  error  // nil if every checksum verified; wraps ErrChecksum on corruption
}

// Corrupt reports whether the scrub result indicates on-disk corruption
// (as opposed to a clean node or a structural lookup failure).
func (r ScrubReport) Corrupt() bool { return errors.Is(r.Err, ErrChecksum) }

// Unreadable reports whether the scrub failed on a device media error:
// the read command itself failed, as opposed to returning bytes whose
// checksum does not verify. betrfsck maps the two to different exit codes.
func (r ScrubReport) Unreadable() bool { return errors.Is(r.Err, ioerr.ErrIO) }

// Scrub reads every node extent referenced by the current block tables of
// both trees and verifies its checksums — the whole-image CRC, the shell
// CRC and every basement's or child buffer's CRC, exercised via full
// deserialization. It bypasses the node cache so that each report reflects
// the bytes actually on disk right now. One report is returned per node,
// in (tree, node ID) order. It takes the store's mutator and structure
// locks, so it can scrub a live store (the vfs Mount.Scrub hook).
func (s *Store) Scrub() []ScrubReport {
	s.writerMu.Lock()
	defer s.writerMu.Unlock()
	s.lockExcl()
	defer s.unlockExcl()
	return s.scrub()
}

// scrub is Scrub for a caller that holds both locks.
func (s *Store) scrub() []ScrubReport {
	var reports []ScrubReport
	for _, t := range []*Tree{s.meta, s.data} {
		ids := make([]nodeID, 0, len(t.bt.entries))
		for id := range t.bt.entries {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			ext := t.bt.entries[id]
			rep := ScrubReport{Tree: t.name, ID: uint64(id), Off: ext.off, Len: ext.len}
			rep.Err = s.verifyExtent(t, id, ext)
			reports = append(reports, rep)
		}
	}
	return reports
}

// RepairStats summarizes one ScrubRepair pass.
type RepairStats struct {
	Checked      int64 // node extents scrubbed
	Bad          int64 // extents whose verification failed
	Repaired     int64 // bad extents relocated to fresh space
	Unrepairable int64 // bad extents with no recoverable image
}

// ScrubRepair scrubs both trees and relocates every bad node image it can
// recover (DESIGN.md §10.6): a readable-but-corrupt extent whose re-read
// decodes cleanly (transfer corruption), or any node with a resident cache
// copy, is rewritten to freshly allocated space and the old extent retired
// to the grown-defect list. A checkpoint then persists the new mapping and
// defect list, so repaired media errors stay repaired across remounts.
// Nodes with no recoverable image are left in place and counted
// Unrepairable; a follow-up fsck still reports them.
func (s *Store) ScrubRepair() (st RepairStats, err error) {
	defer ioerr.Guard(&err)
	s.writerMu.Lock()
	defer s.writerMu.Unlock()
	s.m.repairRun.Inc()
	s.lockExcl()
	reports := s.scrub()
	for _, rep := range reports {
		st.Checked++
		if rep.Err == nil {
			continue
		}
		st.Bad++
		t := s.meta
		if rep.Tree == "data" {
			t = s.data
		}
		if s.repairNode(t, nodeID(rep.ID)) {
			st.Repaired++
			s.m.repairNode.Inc()
		} else {
			st.Unrepairable++
			s.m.repairFail.Inc()
		}
	}
	s.unlockExcl()
	if st.Repaired > 0 {
		// Persist the new mapping and defect list (checkpointLocked takes
		// the structure lock itself).
		s.checkpointLocked()
	}
	return st, nil
}

// repairNode tries to produce a good image for one bad node and rewrite it
// at fresh space. Recovery sources, in order: a re-read of the extent that
// decodes cleanly (the corruption was in transfer, or intermittent —
// "readable but degrading"), then a resident cache copy serialized anew.
// Runs under writerMu and the exclusive structure lock.
func (s *Store) repairNode(t *Tree, id nodeID) bool {
	ext, ok := t.bt.lookup(id)
	if !ok {
		return false
	}
	var data []byte
	img := make([]byte, ext.len)
	if rerr := t.f.SubmitRead(img, ext.off)(); rerr == nil {
		s.m.retryCorrupt.Inc()
		if _, derr := s.decodeImage(img, id, nil); derr == nil {
			data = img
		}
	}
	if data == nil {
		// No good bytes on the media: fall back to a resident cache copy,
		// the current logical state of the node. Partitions still on disk
		// must be materialized first — from the old extent, which may
		// still succeed when the corruption sits outside their ranges.
		n, ok := s.cache.lookup(t, id, false)
		if !ok {
			return false
		}
		for bi := range n.basements {
			if s.loadBasement(t, n, ext, bi) != nil {
				return false
			}
		}
		for ci := range n.bufs {
			if s.loadPartition(t, n, ext, ci) != nil {
				return false
			}
		}
		ni := s.prepareNodeImage(t, n)
		data = ni.data
		s.alloc.FreeSized(ni.buf)
		n.dirty.Store(false)
		n.markClean()
	}
	ne, rerr := t.bt.relocate(id, int64(len(data)))
	if rerr != nil {
		return false // node file full; leave the mapping as it was
	}
	s.m.defectGrown.Inc()
	s.m.defectBytes.Add(ext.len)
	s.env.Trace("betree", "node.repair", t.name, ext.off)
	// completeWrite handles the new extent itself landing on bad media
	// (cascading relocation, bounded by relocateAttempts).
	w := &inflightWrite{t: t, id: id, ext: ne, data: data, wait: t.f.SubmitWrite(data, ne.off)}
	if werr := s.completeWrite(w); werr != nil {
		return false
	}
	return true
}

// DefectStats reports the grown-defect lists of both trees combined:
// retired extent count and retired bytes.
func (s *Store) DefectStats() (count, bytes int64) {
	for _, t := range []*Tree{s.meta, s.data} {
		c, b := t.bt.defectStats()
		count += c
		bytes += b
	}
	return count, bytes
}

// verifyExtent reads one node image and runs it through the same decode
// path normal reads use, reporting any checksum or format failure.
func (s *Store) verifyExtent(t *Tree, id nodeID, ext extent) error {
	data := make([]byte, ext.len)
	if rerr := t.f.SubmitRead(data, ext.off)(); rerr != nil {
		return rerr // wraps ErrIO: a media error, not checksum corruption
	}
	s.m.scrubBytesRead.Add(ext.len)
	_, err := s.decodeImage(data, id, nil)
	return err
}
