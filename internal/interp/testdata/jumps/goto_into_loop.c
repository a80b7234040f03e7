#include <stdio.h>
int main(void) {
	int i = 0, s = 0;
	goto in;
	for (i = 10; i < 3; i++) {
	in:
		s += 10;
	}
	printf("%d %d\n", i, s);
	return 0;
}
