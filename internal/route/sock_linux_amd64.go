package route

// The batched socket calls' numbers on linux/amd64. The stdlib syscall
// package has SYS_RECVMMSG here but no SYS_SENDMMSG.
const (
	sysRecvmmsg = 299
	sysSendmmsg = 307
)
