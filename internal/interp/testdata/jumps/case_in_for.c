#include <stdio.h>
int main(void) {
	int i = 0, s = 0;
	switch (2) {
	case 1:
		s = 100;
		for (i = 0; i < 3; i++) {
	case 2:
			s += 10;
		}
	}
	printf("%d %d\n", i, s);
	return 0;
}
