#include <stdio.h>
int main(void) {
	int s = 0;
	goto in;
	for (int i = 0; i < 3; i++) {
	in:
		if (s == 0)
			i = 1;
		s += i;
	}
	printf("%d\n", s);
	return 0;
}
