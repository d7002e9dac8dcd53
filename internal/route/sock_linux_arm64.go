package route

// The batched socket calls' numbers on linux/arm64 (the generic syscall
// table).
const (
	sysRecvmmsg = 243
	sysSendmmsg = 269
)
