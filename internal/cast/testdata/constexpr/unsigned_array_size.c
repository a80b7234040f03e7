#include <stdio.h>

/* UINT_MAX / INT_MAX: 2 where unsigned int has 32 bits, not 0. */
int a[-1U / 2147483647U];

int main(void) {
	printf("%zu\n", sizeof a / sizeof a[0]);
	return 0;
}
