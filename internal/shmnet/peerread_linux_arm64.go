package shmnet

import "syscall"

// sysProcessVMReadv is process_vm_readv on linux/arm64.
const sysProcessVMReadv = syscall.SYS_PROCESS_VM_READV
