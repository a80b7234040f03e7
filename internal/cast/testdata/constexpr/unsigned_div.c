#include <stdio.h>

/* -1U / 2 is UINT_MAX / 2 in unsigned int: positive under every model. */
enum { E = -1U / 2 > 0 };

int main(void) {
	printf("%d %d\n", E, -1U / 2 > 0);
	printf("%llu\n", (unsigned long long)(-1U / 2));
	return 0;
}
