package fuzz

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// Lease corpora travel as deltas (docs/SERVICE.md). The merged global corpus
// of a campaign only ever grows by appending, so a worker that still holds
// the first n seeds from an earlier lease needs only seeds[n:]. A prefix is
// named by its length and a digest: a SHA-256 chain over the seeds' wire
// encodings, so a worker proves what it holds without sending it, and a
// prefix held from another campaign — or from a restarted server whose
// campaign IDs begin again at c1 — fails the comparison and gets the full
// corpus.

// prefixSum is the digest of a corpus prefix. The empty prefix's digest is
// the zero value; each seed extends the chain with next.
type prefixSum [sha256.Size]byte

// next returns the digest of the prefix extended by one seed, given in its
// wire form: the testcase text, the point-sorted intervals, the mutation
// direction and target. Every field is length- or varint-delimited, so no
// two distinct seeds hash the same byte string.
func (p prefixSum) next(tc string, intvls []PointIntvl, dir, target int) prefixSum {
	buf := make([]byte, 0, len(p)+len(tc)+binary.MaxVarintLen64*(3+2*len(intvls)))
	buf = append(buf, p[:]...)
	buf = binary.AppendUvarint(buf, uint64(len(tc)))
	buf = append(buf, tc...)
	buf = binary.AppendUvarint(buf, uint64(len(intvls)))
	for _, pi := range intvls {
		buf = binary.AppendVarint(buf, int64(pi.Point))
		buf = binary.AppendVarint(buf, pi.Intvl)
	}
	buf = binary.AppendVarint(buf, int64(dir))
	buf = binary.AppendVarint(buf, int64(target))
	return sha256.Sum256(buf)
}

// String returns the digest in the hex form leases and acquire bodies carry.
func (p prefixSum) String() string { return hex.EncodeToString(p[:]) }

// CorpusPrefix names a leading run of a campaign's merged corpus: what a
// lease worker holds decoded, offered back to the coordinator so the next
// lease carries only the seeds past it. The zero value holds nothing.
type CorpusPrefix struct {
	// Seeds is the number of leading corpus seeds held.
	Seeds int `json:"seeds"`
	// Sum is the hex SHA-256 chain digest of those seeds' wire encodings.
	Sum string `json:"sum"`
}

// HeldCorpus is a lease worker's decoded copy of one campaign's corpus
// prefix: the seeds of the last lease it executed and their prefix digests,
// not their text. ExecuteLease resolves a delta lease against it and then
// holds the lease's full corpus. The zero value holds nothing; a HeldCorpus
// is not safe for concurrent use.
type HeldCorpus struct {
	seeds []*Seed
	// sums[n] is the digest of seeds[:n]; empty until the first resolve.
	sums []prefixSum
}

// Prefix returns the held prefix, for the worker's next acquire.
func (h *HeldCorpus) Prefix() CorpusPrefix {
	if len(h.seeds) == 0 {
		return CorpusPrefix{}
	}
	return CorpusPrefix{Seeds: len(h.seeds), Sum: h.sums[len(h.seeds)].String()}
}

// resolve rebuilds the full corpus lease l runs against — the first l.Base
// held seeds, then the lease's own — and holds it from then on. A base
// beyond the held prefix or a digest mismatch is an error, and leaves the
// held prefix untouched. The returned corpus is a frozen view of the held
// seeds: the first retained seed thaws it onto private storage rather than
// appending into the shared list.
func (h *HeldCorpus) resolve(l *Lease) (*Corpus, error) {
	if l.Base < 0 || l.Base > len(h.seeds) {
		return nil, fmt.Errorf("fuzz: lease corpus base %d outside the %d held seeds", l.Base, len(h.seeds))
	}
	if l.Base > 0 && h.sums[l.Base].String() != l.BaseSum {
		return nil, fmt.Errorf("fuzz: lease corpus base %d digest %q does not match the held prefix", l.Base, l.BaseSum)
	}
	seeds, sums := h.seeds, h.sums
	if len(sums) == 0 {
		sums = []prefixSum{{}}
	}
	if l.Base < len(seeds) {
		// Capacity-capped, so the appends below copy instead of overwriting
		// held seeds that earlier corpus views may still reference.
		seeds, sums = seeds[:l.Base:l.Base], sums[:l.Base+1:l.Base+1]
	}
	for i := range l.Corpus.Seeds {
		sw := &l.Corpus.Seeds[i]
		s, err := sw.seed()
		if err != nil {
			return nil, fmt.Errorf("fuzz: lease corpus seed %d: %w", l.Base+i, err)
		}
		seeds = append(seeds, s)
		sums = append(sums, sums[len(sums)-1].next(sw.TC, sw.Intvls, sw.Dir, sw.Target))
	}
	h.seeds, h.sums = seeds, sums
	return &Corpus{seeds: seeds, best: unsortIntvls(l.Corpus.Best), frozen: true}, nil
}
