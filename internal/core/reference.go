package core

import (
	"errors"
	"io"

	"bwaver/internal/dna"
	"bwaver/internal/fastx"
)

// ReadReference is the one way a reference enters: a FASTA stream (plain or
// gzipped, always decoded strictly — a corrupt reference is an error, never
// something to resync past) read record by record into one concatenated
// sequence, with the contig set that translates positions back to records
// (the first contig names the reference). Every byte that is not a nucleotide
// letter becomes A; replaced counts them. Memory at its peak is the input,
// one record and the output: records are not collected before they are joined
// and the joined text is not copied to be sanitized.
func ReadReference(r io.Reader) (seq dna.Seq, contigs *ContigSet, replaced int, err error) {
	rd, err := fastx.NewReader(r)
	if err != nil {
		return nil, nil, 0, err
	}
	defer rd.Close()
	var names []string
	var lengths []int
	for {
		rec, err := rd.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, 0, err
		}
		var n int
		seq, n = dna.AppendSanitized(seq, rec.Seq, dna.A)
		replaced += n
		names = append(names, rec.ID)
		lengths = append(lengths, len(rec.Seq))
	}
	if len(names) == 0 {
		return nil, nil, 0, errors.New("no FASTA records")
	}
	contigs, err = NewContigSet(names, lengths)
	if err != nil {
		return nil, nil, 0, err
	}
	return seq, contigs, replaced, nil
}
