#include <stdio.h>

int main(void) {
	unsigned char u = 0;
	unsigned short w = 65535;
	unsigned x = 0;
	_Bool b = 0;
	u--;
	w++;
	x--;
	b--;
	printf("%d %d %u %d\n", u, w, x, b);
	return 0;
}
