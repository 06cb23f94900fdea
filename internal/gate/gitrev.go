package gate

import (
	"os/exec"
	"strings"
)

// GitRev returns the short HEAD revision, best-effort: "" when the
// process runs outside a checkout or git is missing. History records
// work fine without it; with it, clperf history shows which commit each
// profile came from.
func GitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
