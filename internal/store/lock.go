package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// LockFileName is the advisory-lock file the store creates at the root
// of its data directory. The lock is exclusive: a second process (or a
// second store in the same process) opening the same directory fails
// immediately instead of corrupting the log behind the first one's
// back.
const LockFileName = "LOCK"

// DirLock is a held exclusive lock on a data directory. The zero value
// and nil are both safe to Release (no-ops), so error paths can release
// unconditionally.
type DirLock struct {
	f *os.File
}

// AcquireDirLock takes the exclusive flock on dir's LOCK file without
// blocking. A directory already locked — by another process or another
// engine in this one — fails with an error naming the holder (the
// pid/hostname stamp the winning acquire wrote into the file), so a
// multi-tenant double-open is diagnosable from the message alone. The
// lock dies with the process, so a crashed owner never wedges the
// directory.
func AcquireDirLock(dir string) (*DirLock, error) {
	path := filepath.Join(dir, LockFileName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		holder := readLockOwner(f)
		f.Close()
		if holder != "" {
			return nil, fmt.Errorf("store: data dir %s is locked by %s (%v)", dir, holder, err)
		}
		return nil, fmt.Errorf("store: data dir %s is locked by another process (%v)", dir, err)
	}
	writeLockOwner(f)
	return &DirLock{f: f}, nil
}

// Release drops the lock. Idempotent; safe on nil.
func (l *DirLock) Release() error {
	if l == nil || l.f == nil {
		return nil
	}
	f := l.f
	l.f = nil
	syscall.Flock(int(f.Fd()), syscall.LOCK_UN)
	return f.Close()
}

// writeLockOwner stamps the held lock file with who owns it. Best
// effort: the stamp is diagnostic only (the flock is the lock), so
// write errors are ignored.
func writeLockOwner(f *os.File) {
	host, _ := os.Hostname()
	stamp := fmt.Sprintf("pid=%d host=%s acquired=%s\n",
		os.Getpid(), host, time.Now().UTC().Format(time.RFC3339))
	if err := f.Truncate(0); err != nil {
		return
	}
	f.WriteAt([]byte(stamp), 0)
}

// readLockOwner reads the holder stamp out of a contended lock file.
// Returns "" when the file is empty (pre-stamp lockers) or unreadable.
func readLockOwner(f *os.File) string {
	buf := make([]byte, 256)
	n, _ := f.ReadAt(buf, 0)
	s := strings.TrimSpace(string(buf[:n]))
	if s == "" || strings.ContainsAny(s, "\x00") {
		return ""
	}
	// Keep only the first line; a torn or oversized stamp is clipped.
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	return s
}
