#include <stdio.h>

/* UINT_MAX / INT_MAX is 2 where unsigned int has 32 bits: f holds 0..3. */
struct s {
	unsigned f : -1U / 2147483647U;
};

int main(void) {
	struct s x;
	x.f = 7;
	printf("%u\n", x.f);
	return 0;
}
