package promcheck

import (
	"strings"
	"testing"
)

func TestParsePrometheusRejectsMalformed(t *testing.T) {
	cases := []string{
		"no_type_decl 1\n",
		"# TYPE h histogram\nh_bucket{le=\"2\"} 5\nh_bucket{le=\"1\"} 6\nh_bucket{le=\"+Inf\"} 6\nh_count 6\n",
		"# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 4\nh_count 4\n",
		"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 4\nh_count 5\n",
		"# TYPE c counter\nc{unterminated=\"x} 1\n",
		"# TYPE c counter\nc not-a-number\n",
		"# TYPE c counter\n# TYPE c gauge\nc 1\n",
	}
	for i, in := range cases {
		if _, err := ParsePrometheus(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: malformed input accepted:\n%s", i, in)
		}
	}
}
