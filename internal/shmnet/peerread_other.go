//go:build !linux || !(amd64 || arm64)

package shmnet

import (
	"fmt"
	"runtime"
)

// readPeer has no process_vm_readv to call here: every mmap peer's probe
// fails, and bodies stream through the ring.
func readPeer(pid int, dst []byte, addr uintptr) error {
	return fmt.Errorf("not available on %s/%s", runtime.GOOS, runtime.GOARCH)
}
