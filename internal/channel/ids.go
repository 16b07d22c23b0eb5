package channel

import (
	"errors"
	"fmt"
)

// ValidateIDs checks a channel ID list: it must be non-empty, every name
// must be non-empty and filesystem-safe (disk backends use the ID as a
// directory name), and names must not repeat.
func ValidateIDs(ids []string) error {
	if len(ids) == 0 {
		return errors.New("channel: no channels configured")
	}
	seen := make(map[string]struct{}, len(ids))
	for _, id := range ids {
		if err := validateID(id); err != nil {
			return err
		}
		if _, dup := seen[id]; dup {
			return fmt.Errorf("channel: duplicate channel name %q", id)
		}
		seen[id] = struct{}{}
	}
	return nil
}

// validateID checks one channel name. The character set is restricted to
// what is safe as a directory name on every platform: letters, digits,
// '.', '-' and '_', not starting with '.'.
func validateID(id string) error {
	if id == "" {
		return errors.New("channel: empty channel name")
	}
	if id[0] == '.' {
		return fmt.Errorf("channel: channel name %q must not start with '.'", id)
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '-', r == '_':
		default:
			return fmt.Errorf("channel: channel name %q contains %q (allowed: letters, digits, '.', '-', '_')", id, r)
		}
	}
	return nil
}
