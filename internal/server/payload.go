package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
)

// payload is one part of an upload, the reference or the reads: bytes in
// memory (a multipart submission, a chunked upload on a stateless server) or
// a file under the journal's payloads/ directory (a chunked upload on a
// durable server, a job replayed after a restart). Everything downstream of
// the upload handlers reads a part through open and never asks which it is.
type payload struct {
	raw  []byte
	path string // file-backed when set; raw stays nil
	// size is the committed extent, the offset a chunked client resumes from.
	size int64
}

// filePayload is the part stored at path, as much of it as the disk holds:
// nothing yet, when the file does not exist.
func filePayload(path string) payload {
	p := payload{path: path}
	if fi, err := os.Stat(path); err == nil {
		p.size = fi.Size()
	}
	return p
}

// open returns a reader over the part.
func (p *payload) open() (io.ReadCloser, error) {
	if p.path != "" {
		return os.Open(p.path)
	}
	return io.NopCloser(bytes.NewReader(p.raw)), nil
}

// digest is the SHA-256 (hex) of the part: the digest handleSubmit takes on
// the wire, for the ingest routes that hand launch a reference without one
// (chunked finalize, journal replay, /demo).
func (p *payload) digest() (string, error) {
	rc, err := p.open()
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

// append commits one chunk at the end of the part. A file-backed part is not
// fsync'd per chunk: a crash-torn tail just lowers the committed offset the
// client resumes from.
func (p *payload) append(chunk []byte) error {
	if p.path == "" {
		p.raw = append(p.raw, chunk...)
	} else {
		f, err := os.OpenFile(p.path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write(chunk); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	p.size += int64(len(chunk))
	return nil
}

// sync makes a file-backed part durable; a part in memory has nothing to
// flush.
func (p *payload) sync() error {
	if p.path == "" {
		return nil
	}
	f, err := os.Open(p.path)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}
