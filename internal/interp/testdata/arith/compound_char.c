#include <stdio.h>

/* E += 1 and E++ agree on every small type. */
int main(void) {
	signed char a = 127, b = 127;
	short c = -32768, d = -32768;
	a += 1;
	b++;
	c -= 1;
	d--;
	printf("%d %d %d %d\n", a, b, c, d);
	return 0;
}
