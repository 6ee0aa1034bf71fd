package shmnet

// sysProcessVMReadv is process_vm_readv on linux/amd64 (the syscall
// package lists no number for it there).
const sysProcessVMReadv = 310
