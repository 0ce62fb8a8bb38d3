"""Reference implementations the differential tests compare production code against."""
