//go:build !unix

package store

import "os"

// mmapFile on platforms without syscall.Mmap reads the file into the
// heap; the snapshot then behaves like a mapped one minus the page-cache
// residency (refcounting still gates access, munmap is a no-op).
func mmapFile(f *os.File, size int) ([]byte, bool, error) { return readFile(f, size) }

func munmapFile([]byte) {}
