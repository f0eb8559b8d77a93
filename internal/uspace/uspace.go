// Package uspace implements UNICORE's data model (paper §4, §5.6): the
// distinction between data inside UNICORE (the Uspace — per-job directories)
// and outside (the Xspace — the file systems of the Vsite — and the user's
// workstation). Imports move data into a job's Uspace, exports move results
// to the Xspace, and transfers move files between the Uspaces of different
// jobs (the NJS performs the cross-site variant via its peer, §5.6).
//
// One Space manages both trees on a Vsite's shared file system, because "a
// Vsite consists of systems at one Usite sharing the same data space".
package uspace

import (
	"errors"
	"fmt"
	"path"
	"strings"

	"unicore/internal/core"
	"unicore/internal/vfs"
)

// Errors reported by space operations.
var (
	ErrEscape    = errors.New("uspace: path escapes its space")
	ErrNoJobDir  = errors.New("uspace: job directory does not exist")
	ErrJobExists = errors.New("uspace: job directory already exists")
)

// The roots of every Space: users' home directories (the Xspace) and the
// per-job directories (the Uspace).
const (
	xspaceRoot = "/home"
	uspaceRoot = "/uspace"
	jobPrefix  = uspaceRoot + "/" // JobDir's prefix
)

// Space is the data space of one Vsite.
type Space struct {
	fs *vfs.FS
}

// New creates a Space on fs, creating both roots.
func New(fs *vfs.FS) (*Space, error) {
	if err := fs.MkdirAll(xspaceRoot); err != nil {
		return nil, fmt.Errorf("uspace: creating Xspace root: %w", err)
	}
	if err := fs.MkdirAll(uspaceRoot); err != nil {
		return nil, fmt.Errorf("uspace: creating Uspace root: %w", err)
	}
	return &Space{fs: fs}, nil
}

// FS exposes the underlying file system (the batch tier runs on it).
func (s *Space) FS() *vfs.FS { return s.fs }

// UspaceRoot returns the Uspace root path (the parent of every job
// directory).
func (s *Space) UspaceRoot() string { return uspaceRoot }

// JobDir returns the Uspace directory path for a job.
func (s *Space) JobDir(job core.JobID) string {
	return jobPrefix + string(job)
}

// CreateJobDir creates the per-job Uspace directory — "create a UNICORE job
// directory to contain the data for and created during the job run" (§5.5).
func (s *Space) CreateJobDir(job core.JobID) (string, error) {
	dir := s.JobDir(job)
	if s.fs.Exists(dir) {
		return "", fmt.Errorf("%w: %s", ErrJobExists, job)
	}
	if err := s.fs.MkdirAll(dir); err != nil {
		return "", err
	}
	return dir, nil
}

// jobPath resolves a Uspace-relative path, refusing escapes. The cleaned
// rel is appended to the job dir, so the result is one string and the job
// dir is checked on its prefix. An escape is refused before the job dir is
// looked up.
func (s *Space) jobPath(job core.JobID, rel string) (string, error) {
	c := path.Clean(rel)
	dir := len(jobPrefix) + len(job)
	if strings.HasPrefix(c, "/") {
		return "", fmt.Errorf("%w: %q (must be Uspace-relative)", ErrEscape, rel)
	}
	if c == ".." || strings.HasPrefix(c, "../") {
		return "", fmt.Errorf("%w: %q", ErrEscape, rel)
	}
	p := jobPrefix + string(job) + "/" + c
	if c == "." {
		p = p[:dir]
	}
	if !s.fs.Exists(p[:dir]) {
		return "", fmt.Errorf("%w: %s", ErrNoJobDir, job)
	}
	return p, nil
}

// xspacePath resolves a user-supplied Xspace path. Paths are interpreted
// inside the Xspace — "the file systems available at the Vsites of a Usite
// are called Xspace" (§4) — so "/results/a.dat" and "results/a.dat" both
// name <xspaceRoot>/results/a.dat, unless the path already carries the root
// prefix. Escapes (..) are refused.
func (s *Space) xspacePath(p string) (string, error) {
	cp := p
	if !strings.HasPrefix(cp, "/") {
		cp = "/" + cp
	}
	cp = path.Clean(cp)
	if cp == "/" {
		return "", fmt.Errorf("%w: empty Xspace path", ErrEscape)
	}
	if cp != xspaceRoot && !strings.HasPrefix(cp, xspaceRoot+"/") {
		cp = xspaceRoot + cp // both clean, and cp is rooted and not "/"
	}
	if cp != xspaceRoot && !strings.HasPrefix(cp, xspaceRoot+"/") {
		return "", fmt.Errorf("%w: %q outside Xspace %s", ErrEscape, p, xspaceRoot)
	}
	return cp, nil
}

// ImportInline stages workstation data (carried inside the AJO) into the
// job's Uspace.
func (s *Space) ImportInline(job core.JobID, rel string, data []byte) error {
	p, err := s.jobPath(job, rel)
	if err != nil {
		return err
	}
	if dir := path.Dir(p); dir != s.JobDir(job) {
		if err := s.fs.MkdirAll(dir); err != nil {
			return err
		}
	}
	return s.fs.WriteFile(p, data)
}

// ImportXspace copies a file from the Vsite's Xspace into the job's Uspace —
// "imports from Xspace to Uspace ... are always local operations performed
// at a Vsite. They are implemented as a copy process" (§5.6).
func (s *Space) ImportXspace(job core.JobID, rel, xspacePath string) error {
	xp, err := s.xspacePath(xspacePath)
	if err != nil {
		return err
	}
	p, err := s.jobPath(job, rel)
	if err != nil {
		return err
	}
	if dir := path.Dir(p); dir != s.JobDir(job) {
		if err := s.fs.MkdirAll(dir); err != nil {
			return err
		}
	}
	return s.fs.Copy(p, xp)
}

// Export copies a job result from the Uspace to permanent Xspace storage and
// returns the resulting file's info.
func (s *Space) Export(job core.JobID, rel, xspacePath string) (vfs.FileInfo, error) {
	p, err := s.jobPath(job, rel)
	if err != nil {
		return vfs.FileInfo{}, err
	}
	xp, err := s.xspacePath(xspacePath)
	if err != nil {
		return vfs.FileInfo{}, err
	}
	if err := s.fs.MkdirAll(path.Dir(xp)); err != nil {
		return vfs.FileInfo{}, err
	}
	if err := s.fs.Copy(xp, p); err != nil {
		return vfs.FileInfo{}, err
	}
	return s.fs.Stat(xp)
}

// ReadJobFile reads a file from a job's Uspace (the outbound side of a
// transfer).
func (s *Space) ReadJobFile(job core.JobID, rel string) ([]byte, error) {
	p, err := s.jobPath(job, rel)
	if err != nil {
		return nil, err
	}
	return s.fs.ReadFile(p)
}

// ReadJobFileRange reads up to limit bytes of a Uspace file starting at
// offset, returning the chunk plus the file's total size and whole-file CRC
// — the §5.6 chunked-transfer primitive. Unlike ReadJobFile it copies
// nothing: the chunk is a read-only view of the stored bytes (see
// vfs.FS.ReadFileRange) that the caller encodes or copies but never writes
// through.
func (s *Space) ReadJobFileRange(job core.JobID, rel string, offset, limit int64) ([]byte, int64, uint64, error) {
	p, err := s.jobPath(job, rel)
	if err != nil {
		return nil, 0, 0, err
	}
	return s.fs.ReadFileRange(p, offset, limit)
}

// WriteJobFile writes a file into a job's Uspace (the inbound side of a
// transfer).
func (s *Space) WriteJobFile(job core.JobID, rel string, data []byte) error {
	p, err := s.jobPath(job, rel)
	if err != nil {
		return err
	}
	if dir := path.Dir(p); dir != s.JobDir(job) {
		if err := s.fs.MkdirAll(dir); err != nil {
			return err
		}
	}
	return s.fs.WriteFile(p, data)
}

// StatJobFile stats a Uspace file.
func (s *Space) StatJobFile(job core.JobID, rel string) (vfs.FileInfo, error) {
	p, err := s.jobPath(job, rel)
	if err != nil {
		return vfs.FileInfo{}, err
	}
	return s.fs.Stat(p)
}

// WriteXspace seeds a file into the Xspace (site administration / test
// fixtures; users own their home directories).
func (s *Space) WriteXspace(p string, data []byte) error {
	xp, err := s.xspacePath(p)
	if err != nil {
		return err
	}
	if err := s.fs.MkdirAll(path.Dir(xp)); err != nil {
		return err
	}
	return s.fs.WriteFile(xp, data)
}

// ReadXspace reads a file from the Xspace.
func (s *Space) ReadXspace(p string) ([]byte, error) {
	xp, err := s.xspacePath(p)
	if err != nil {
		return nil, err
	}
	return s.fs.ReadFile(xp)
}
