package checksum

// The PCLMULQDQ kernel joins the checked paths by name, so it is exercised
// directly next to hash/crc64 whichever one Update picked on this machine.
func init() {
	if hasCLMUL {
		paths = append(paths, path{"pclmulqdq", updateCLMUL})
	}
}
