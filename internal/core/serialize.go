package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"os"
	"path/filepath"

	"bwaver/internal/dna"
	"bwaver/internal/fmindex"
	"bwaver/internal/rrr"
	"bwaver/internal/wavelet"
)

// Index file format (little endian):
//
//	magic    uint32 'BWX2'
//	b, sf    uint32  RRR parameters
//	flags    uint8   0 (bit0 was plain bit-vectors, no longer read)
//	locate   uint8   LocateMode
//	sampleRate uint32
//	primary  uint32
//	ftabK    uint32  prefix-table order (0 = none; absent in 'BWX1')
//	counts   [4]uint32 per-symbol occurrence counts
//	wavelet tree payload
//	locate payload (full SA as [n+1]int32, or sampled SA, or nothing)
//	ftab payload (when ftabK > 0)
//	contigs
//
// ReadIndex still accepts the previous 'BWX1' format, which has no ftabK
// header field and no ftab payload; such indexes load with no prefix table
// and callers rebuild one on demand via EnsureFtab.
const (
	indexMagic   = 0x42575832 // "BWX2"
	indexMagicV1 = 0x42575831 // "BWX1"
)

// Index *files* additionally end with a fixed-size integrity trailer so a
// truncated, bit-flipped, or pre-trailer (stale) file is rejected on load
// instead of silently producing wrong mappings:
//
//	trailerMagic uint32 'BWXT'
//	payloadLen   uint64  bytes preceding the trailer
//	checksum     uint64  CRC-64/ECMA over those payloadLen bytes
//
// The trailer is a property of SaveFile/LoadFile, not of WriteTo/ReadIndex:
// streams keep the raw format (and its consumers, e.g. FuzzReadIndex), while
// every file that goes through the filesystem is checksummed. SaveFile also
// writes atomically — temp file in the destination directory, fsync, rename —
// so a crash mid-write can never leave a half-written file under the final
// name.
const (
	trailerMagic = 0x42575854 // "BWXT"
	trailerSize  = 4 + 8 + 8
)

// crcTable is the CRC-64/ECMA polynomial used by the file trailer.
var crcTable = crc64.MakeTable(crc64.ECMA)

// ErrIndexIntegrity tags LoadFile failures caused by the file itself —
// missing trailer, truncation, or checksum mismatch — as opposed to I/O
// errors. Callers holding the reference (the server's index cache, build
// pipelines) match it with errors.Is and rebuild instead of serving from a
// corrupt artifact.
var ErrIndexIntegrity = errors.New("index integrity check failed")

// ErrIndexFlags tags ReadIndex failures on a header whose flags byte is not
// 0: bit 0 marked an index of plain bit-vectors, which no longer load, and no
// other bit was ever defined.
var ErrIndexFlags = errors.New("core: unsupported index flags")

// WriteTo serializes the index. It implements io.WriterTo.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	cw := &countingWriter{w: bw}

	occ, ok := ix.fm.OccProvider().(*fmindex.WaveletOcc)
	if !ok {
		return 0, fmt.Errorf("core: only wavelet-backed indexes serialize, have %s", ix.fm.OccName())
	}
	head := []any{
		uint32(indexMagic),
		uint32(ix.config.RRR.BlockSize), uint32(ix.config.RRR.SuperblockFactor),
		uint8(0), uint8(ix.config.Locate), uint32(ix.config.SampleRate),
		uint32(ix.fm.Primary()),
		uint32(ix.FtabK()),
	}
	for _, v := range head {
		if err := binary.Write(cw, binary.LittleEndian, v); err != nil {
			return cw.n, err
		}
	}
	for s := uint8(0); s < dna.AlphabetSize; s++ {
		if err := binary.Write(cw, binary.LittleEndian, uint32(ix.fm.SymbolCount(s))); err != nil {
			return cw.n, err
		}
	}
	if _, err := occ.Tree.WriteTo(cw); err != nil {
		return cw.n, err
	}
	switch ix.config.Locate {
	case LocateFullSA:
		if err := binary.Write(cw, binary.LittleEndian, ix.fm.SA()); err != nil {
			return cw.n, err
		}
	case LocateSampled:
		if _, err := ix.fm.Sampled().WriteTo(cw); err != nil {
			return cw.n, err
		}
	}
	if ftab := ix.fm.Ftab(); ftab != nil {
		if _, err := ftab.WriteTo(cw); err != nil {
			return cw.n, err
		}
	}
	if err := writeContigs(cw, ix.contigs); err != nil {
		return cw.n, err
	}
	return cw.n, bw.Flush()
}

func writeContigs(w io.Writer, cs *ContigSet) error {
	if cs == nil {
		return binary.Write(w, binary.LittleEndian, uint32(0))
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(cs.Count())); err != nil {
		return err
	}
	for _, c := range cs.Contigs() {
		name := []byte(c.Name)
		if len(name) > 1<<16-1 {
			return fmt.Errorf("core: contig name %q too long", c.Name)
		}
		if err := binary.Write(w, binary.LittleEndian, uint16(len(name))); err != nil {
			return err
		}
		if _, err := w.Write(name); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, uint32(c.Length)); err != nil {
			return err
		}
	}
	return nil
}

func readContigs(r io.Reader) (*ContigSet, error) {
	var count uint32
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("core: reading contig count: %w", err)
	}
	if count == 0 {
		return nil, nil
	}
	if count > 1<<24 {
		return nil, fmt.Errorf("core: implausible contig count %d", count)
	}
	names := make([]string, count)
	lengths := make([]int, count)
	for i := range names {
		var nameLen uint16
		if err := binary.Read(r, binary.LittleEndian, &nameLen); err != nil {
			return nil, fmt.Errorf("core: reading contig name length: %w", err)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(r, name); err != nil {
			return nil, fmt.Errorf("core: reading contig name: %w", err)
		}
		names[i] = string(name)
		var l uint32
		if err := binary.Read(r, binary.LittleEndian, &l); err != nil {
			return nil, fmt.Errorf("core: reading contig length: %w", err)
		}
		lengths[i] = int(l)
	}
	return NewContigSet(names, lengths)
}

// ReadIndex deserializes an index written by WriteTo.
func ReadIndex(r io.Reader) (*Index, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var (
		magic, b, sf, sampleRate, primary, ftabK uint32
		flags, locate                            uint8
	)
	for _, v := range []any{&magic, &b, &sf, &flags, &locate, &sampleRate, &primary} {
		if err := binary.Read(br, binary.LittleEndian, v); err != nil {
			return nil, fmt.Errorf("core: reading index header: %w", err)
		}
	}
	if magic != indexMagic && magic != indexMagicV1 {
		return nil, fmt.Errorf("core: not a BWaveR index (magic %#x)", magic)
	}
	if magic == indexMagic {
		// The v1 header has no prefix-table field; v1 files load with no
		// table and callers rebuild one on demand (EnsureFtab).
		if err := binary.Read(br, binary.LittleEndian, &ftabK); err != nil {
			return nil, fmt.Errorf("core: reading index header: %w", err)
		}
		if ftabK > fmindex.MaxFtabK {
			return nil, fmt.Errorf("core: implausible ftab order %d", ftabK)
		}
	}
	if flags != 0 {
		return nil, fmt.Errorf("%w %#x (bit 0 marked plain bit-vectors, which are no longer supported): rebuild the index with `bwaver index`", ErrIndexFlags, flags)
	}
	cfg := IndexConfig{
		RRR:        rrr.Params{BlockSize: int(b), SuperblockFactor: int(sf)},
		Locate:     LocateMode(locate),
		SampleRate: int(sampleRate),
		FtabK:      int(ftabK),
	}
	if err := cfg.RRR.Validate(); err != nil {
		return nil, err
	}
	counts := make([]int, dna.AlphabetSize)
	total := 0
	for s := range counts {
		var c uint32
		if err := binary.Read(br, binary.LittleEndian, &c); err != nil {
			return nil, fmt.Errorf("core: reading symbol counts: %w", err)
		}
		counts[s] = int(c)
		total += int(c)
	}
	tree, err := wavelet.ReadTree(br)
	if err != nil {
		return nil, err
	}
	if tree.Len() != total {
		return nil, fmt.Errorf("core: tree covers %d symbols, counts sum to %d", tree.Len(), total)
	}
	// The header's per-symbol counts feed the FM-index C array; they must
	// agree with what the tree actually stores, or backward-search ranges
	// overflow on a corrupted file.
	for s := 0; s < dna.AlphabetSize; s++ {
		if got := tree.Count(uint8(s)); got != counts[s] {
			return nil, fmt.Errorf("core: tree stores %d copies of symbol %d, header says %d", got, s, counts[s])
		}
	}
	occ := &fmindex.WaveletOcc{Tree: tree}
	opts := fmindex.Options{}
	switch cfg.Locate {
	case LocateFullSA:
		sa := make([]int32, total+1)
		if err := binary.Read(br, binary.LittleEndian, sa); err != nil {
			return nil, fmt.Errorf("core: reading suffix array: %w", err)
		}
		opts.SA = sa
	case LocateSampled:
		sampled, err := fmindex.ReadSampledSA(br)
		if err != nil {
			return nil, err
		}
		opts.Sampled = sampled
	case LocateNone:
	default:
		return nil, fmt.Errorf("core: unknown locate mode %d", cfg.Locate)
	}
	fm, err := fmindex.NewFromParts(occ, dna.AlphabetSize, int(primary), counts, opts)
	if err != nil {
		return nil, err
	}
	stats := BuildStats{
		RefLength:         total,
		UncompressedBytes: total,
		StructureBytes:    tree.SizeBytes(),
		SharedBytes:       tree.SharedSizeBytes(),
	}
	if ftabK > 0 {
		ftab, err := fmindex.ReadFtab(br, fm)
		if err != nil {
			return nil, err
		}
		if got := ftab.K(); got != int(ftabK) {
			return nil, fmt.Errorf("core: ftab payload order %d, header says %d", got, ftabK)
		}
		fm.SetFtab(ftab)
		stats.FtabBytes = ftab.SizeBytes()
	}
	ix := &Index{fm: fm, config: cfg, stats: stats}
	contigs, err := readContigs(br)
	if err != nil {
		return nil, err
	}
	if err := ix.SetContigs(contigs); err != nil {
		return nil, err
	}
	return ix, nil
}

// SaveFile writes the index to path atomically with an integrity trailer:
// the payload and its CRC-64 trailer go to a temp file in the destination
// directory, the file is fsync'd, and only then renamed over path. A crash at
// any point leaves either the previous file or a stray temp file — never a
// truncated index under the final name.
func (ix *Index) SaveFile(path string) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	hw := &hashingWriter{w: tmp, h: crc64.New(crcTable)}
	n, err := ix.WriteTo(hw)
	if err != nil {
		return err
	}
	var trailer [trailerSize]byte
	binary.LittleEndian.PutUint32(trailer[0:4], trailerMagic)
	binary.LittleEndian.PutUint64(trailer[4:12], uint64(n))
	binary.LittleEndian.PutUint64(trailer[12:20], hw.h.Sum64())
	if _, err = tmp.Write(trailer[:]); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// Persist the rename itself. Directory fsync is advisory on some
	// platforms; failure to open the directory is not a save failure.
	if d, derr := os.Open(dir); derr == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// LoadFile reads an index from path, verifying the integrity trailer before
// parsing: a missing trailer (stale pre-checksum BWX file), a length mismatch
// (truncation), or a checksum mismatch (bit rot, torn write) fails closed
// with an error matching ErrIndexIntegrity.
func LoadFile(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < trailerSize {
		return nil, fmt.Errorf("core: %s: %w: file is %d bytes, smaller than the integrity trailer", path, ErrIndexIntegrity, size)
	}
	var trailer [trailerSize]byte
	if _, err := f.ReadAt(trailer[:], size-trailerSize); err != nil {
		return nil, fmt.Errorf("core: %s: reading integrity trailer: %w", path, err)
	}
	if got := binary.LittleEndian.Uint32(trailer[0:4]); got != trailerMagic {
		return nil, fmt.Errorf("core: %s: %w: missing integrity trailer (stale pre-checksum index? rebuild with `bwaver index`)", path, ErrIndexIntegrity)
	}
	payloadLen := binary.LittleEndian.Uint64(trailer[4:12])
	if payloadLen != uint64(size-trailerSize) {
		return nil, fmt.Errorf("core: %s: %w: trailer says %d payload bytes, file holds %d (truncated or overwritten)", path, ErrIndexIntegrity, payloadLen, size-trailerSize)
	}
	// Verify the checksum over the whole payload before parsing a single
	// field: a corrupt file must never reach the deserializer, whose
	// structural checks are necessarily incomplete.
	h := crc64.New(crcTable)
	if _, err := io.Copy(h, io.NewSectionReader(f, 0, int64(payloadLen))); err != nil {
		return nil, fmt.Errorf("core: %s: checksumming payload: %w", path, err)
	}
	if got, want := h.Sum64(), binary.LittleEndian.Uint64(trailer[12:20]); got != want {
		return nil, fmt.Errorf("core: %s: %w: checksum mismatch (have %#x, trailer says %#x)", path, ErrIndexIntegrity, got, want)
	}
	return ReadIndex(io.NewSectionReader(f, 0, int64(payloadLen)))
}

// hashingWriter tees writes into a running checksum.
type hashingWriter struct {
	w io.Writer
	h hash64
}

// hash64 is the subset of hash.Hash64 the trailer needs.
type hash64 interface {
	io.Writer
	Sum64() uint64
}

func (hw *hashingWriter) Write(p []byte) (int, error) {
	n, err := hw.w.Write(p)
	hw.h.Write(p[:n])
	return n, err
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
