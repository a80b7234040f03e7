#include <stdio.h>
int main(void) {
	int s = 0;
	for (int k = 0; k < 3; k++) {
		switch (k) {
		case 1:
			goto out;
		default:
			s += 1;
		}
	}
out:
	printf("%d\n", s);
	return s;
}
