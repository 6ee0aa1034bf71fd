//go:build linux && (amd64 || arm64)

package shmnet

import (
	"io"
	"runtime"
	"syscall"
	"unsafe"
)

// remoteIovec is a struct iovec naming memory of another process: an
// address that means nothing here, so it is kept as an integer.
type remoteIovec struct {
	base uintptr
	len  uintptr
}

// readPeer copies len(dst) bytes at addr in process pid into dst with
// process_vm_readv (syscall 310 on amd64): one copy, no ring in between.
// It fails with EPERM where Yama's ptrace_scope or a seccomp filter forbids
// reading the peer, which the probe finds out before any body moves.
func readPeer(pid int, dst []byte, addr uintptr) error {
	for len(dst) > 0 {
		local := syscall.Iovec{Base: &dst[0]}
		local.SetLen(len(dst))
		remote := remoteIovec{addr, uintptr(len(dst))}
		n, _, errno := syscall.Syscall6(sysProcessVMReadv, uintptr(pid),
			uintptr(unsafe.Pointer(&local)), 1, uintptr(unsafe.Pointer(&remote)), 1, 0)
		runtime.KeepAlive(dst)
		if errno != 0 {
			return errno
		}
		if n == 0 {
			return io.ErrUnexpectedEOF
		}
		dst, addr = dst[n:], addr+n
	}
	return nil
}
