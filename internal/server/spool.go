package server

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// spool is the server's one append-only byte store, used for every byte a job
// owns: the two parts of its upload, its results file and its NDJSON result
// stream. Where the bytes live — memory on a stateless server, a file under
// the state dir on a durable one — is decided by newSpool (and by fileSpool,
// for a file a restart finds on disk); everything else appends to a spool,
// reads it and seals it without asking which it is. A spool is safe for
// concurrent use: a stream's subscribers read while its job appends.
type spool struct {
	mu   sync.Mutex
	path string // the backing file; "" keeps the bytes in mem
	mem  []byte
	// n is the committed extent: what a reader sees, and the offset a chunked
	// client resumes from.
	n int64
}

// stagedPayload names a multipart upload part while it comes off the socket,
// before its job has an id: journalAccept renames it to the job's payload
// name, and recover deletes the ones a crash left behind.
const stagedPayload = payloadsDir + "/staged-*"

// newSpool opens an empty spool named rel under the state dir, creating or
// truncating the file; a rel whose last element holds a '*' is a pattern, as
// os.CreateTemp takes it. A stateless server keeps the bytes in memory.
func (s *Server) newSpool(rel string) (*spool, error) {
	if s.journal == nil {
		return &spool{}, nil
	}
	path := s.journal.abs(rel)
	var f *os.File
	var err error
	if dir, pattern := filepath.Split(path); strings.Contains(pattern, "*") {
		f, err = os.CreateTemp(dir, pattern)
	} else {
		f, err = os.Create(path)
	}
	if err != nil {
		return nil, err
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return nil, err
	}
	return &spool{path: f.Name()}, nil
}

// fileSpool is the spool stored at path, as much of it as the disk holds; the
// error is the file's stat error, and the spool is empty when it has one.
func fileSpool(path string) (*spool, error) {
	sp := &spool{path: path}
	fi, err := os.Stat(path)
	if err == nil {
		sp.n = fi.Size()
	}
	return sp, err
}

// ReadFrom appends everything r holds. A file is not fsync'd per call (sync
// does that): a crash-torn tail just lowers the extent a restart finds. Bytes
// a failed copy did write are committed, so the extent always matches what
// the spool holds.
func (sp *spool) ReadFrom(r io.Reader) (n int64, err error) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.path == "" {
		buf := bytes.NewBuffer(sp.mem)
		n, err = io.Copy(buf, r)
		sp.mem = buf.Bytes()
	} else {
		var f *os.File
		if f, err = os.OpenFile(sp.path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644); err != nil {
			return 0, err
		}
		// A multipart part hands out a few KiB per Read; the buffer turns them
		// into 64 KiB writes. (Wrapped, the file cannot offer the ReadFrom
		// that would go around the buffer.)
		bw := bufio.NewWriterSize(struct{ io.Writer }{f}, 64<<10)
		n, err = io.Copy(bw, r)
		if err = firstErr(err, bw.Flush()); err != nil {
			// Commit what the file took, not what the buffer did.
			if fi, serr := f.Stat(); serr == nil {
				n = fi.Size() - sp.n
			}
		}
		err = firstErr(err, f.Close())
	}
	sp.n += n
	return n, err
}

// append commits p at the end of the spool.
func (sp *spool) append(p []byte) error {
	if len(p) == 0 {
		return nil
	}
	_, err := sp.ReadFrom(bytes.NewReader(p))
	return err
}

// size returns the committed extent.
func (sp *spool) size() int64 {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.n
}

// open returns a reader over the spool.
func (sp *spool) open() (io.ReadCloser, error) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.path == "" {
		return io.NopCloser(bytes.NewReader(sp.mem)), nil
	}
	return os.Open(sp.path)
}

// readAt returns the committed bytes in [off, off+limit); the caller owns
// them.
func (sp *spool) readAt(off int64, limit int) ([]byte, error) {
	sp.mu.Lock()
	path, n := sp.path, min(sp.n-off, int64(limit))
	if n <= 0 {
		sp.mu.Unlock()
		return nil, nil
	}
	if path == "" {
		defer sp.mu.Unlock()
		return bytes.Clone(sp.mem[off : off+n]), nil
	}
	sp.mu.Unlock()
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make([]byte, n)
	if _, err := f.ReadAt(out, off); err != nil {
		return nil, err
	}
	return out, nil
}

// sync makes a file durable; memory has nothing to flush.
func (sp *spool) sync() error {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.path == "" {
		return nil
	}
	f, err := os.Open(sp.path)
	if err != nil {
		return err
	}
	return firstErr(f.Sync(), f.Close())
}

// moveTo renames the spool's file to path, the way a staged upload part takes
// its job's payload name; bytes in memory have no name to change.
func (sp *spool) moveTo(path string) error {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.path == "" || sp.path == path {
		return nil
	}
	if err := os.Rename(sp.path, path); err != nil {
		return err
	}
	sp.path = path
	return nil
}

// remove deletes the spool's bytes. A nil spool (a part never uploaded) has
// none.
func (sp *spool) remove() {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.path != "" {
		os.Remove(sp.path)
	}
	sp.mem, sp.n = nil, 0
}

// digest is the SHA-256 (hex) of the spool: the digest handleSubmit takes on
// the wire, for the ingest routes that launch a reference without one
// (chunked finalize, journal replay, /demo).
func (sp *spool) digest() (string, error) {
	rc, err := sp.open()
	if err != nil {
		return "", err
	}
	defer rc.Close()
	h := sha256.New()
	if _, err := io.Copy(h, rc); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
